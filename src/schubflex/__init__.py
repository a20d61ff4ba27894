"""schubflex: exact Schubert-class combinatorics on cominuscule flag varieties.

Subpackages by capability:

* :mod:`schubflex.weyl` -- Dynkin diagrams and reflections (no words).
* :mod:`schubflex.closed_forms` -- group orders, quotient dimensions and the
  opposition involution, read off a diagram.
* :mod:`schubflex.poset` -- parabolic-quotient Hasse diagrams, degrees, duals;
  each quotient is built once per process and shared, immutable.
* :mod:`schubflex.diagram` -- the poset record: classes, order, duality and
  exports (re-exported by :mod:`schubflex.poset`).
* :mod:`schubflex.classical` -- index arithmetic for Grassmannian and quadric
  Schubert classes.
* :mod:`schubflex.isotropic` -- the same for Lagrangian and orthogonal classes.
* :mod:`schubflex.rigidity` -- multi-rigidity classifiers for all families.
* :mod:`schubflex.witnesses` -- flexibility constructions (Bertini-type,
  moduli of curves, cone embeddings) producing checkable certificates.
* :mod:`schubflex.tits` -- incidence-variety transforms between quotients.
* :mod:`schubflex.verify` -- decoration and transform-table verification.
* :mod:`schubflex.cli` -- command-line front end (``schubflex``).
* :mod:`schubflex.commands` -- the selector reader and the ``hasse``,
  ``tits`` and ``verify`` handlers.
* :mod:`schubflex.specs` -- the class-spec grammar, its reader and the
  ``classify``, ``degree`` and ``dual`` handlers.
"""

__version__ = "0.1.0"

from .weyl import CartanDatum, build_cartan  # noqa: F401
