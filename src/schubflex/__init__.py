"""schubflex: exact Schubert-class combinatorics on cominuscule flag varieties.

Subpackages by capability:

* :mod:`schubflex.weyl` -- Dynkin diagrams, reflections, closed forms (no words).
* :mod:`schubflex.poset` -- parabolic-quotient Hasse diagrams, degrees, duals;
  each quotient is built once per process and shared, immutable.
* :mod:`schubflex.diagram` -- the poset record: classes, order, duality and
  exports (re-exported by :mod:`schubflex.poset`).
* :mod:`schubflex.classical` -- index arithmetic for Grassmannian, Lagrangian,
  orthogonal and quadric Schubert classes.
* :mod:`schubflex.rigidity` -- multi-rigidity classifiers for all families.
* :mod:`schubflex.witnesses` -- flexibility constructions (Bertini-type,
  moduli of curves, cone embeddings) producing checkable certificates.
* :mod:`schubflex.tits` -- incidence-variety transforms between quotients.
* :mod:`schubflex.verify` -- decoration and transform-table verification.
* :mod:`schubflex.cli` -- command-line front end (``schubflex``).
* :mod:`schubflex.commands` -- class-spec readers and the command handlers.
"""

__version__ = "0.1.0"

from .weyl import CartanDatum, build_cartan  # noqa: F401
