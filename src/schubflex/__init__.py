"""schubflex: exact Schubert-class combinatorics on cominuscule flag varieties.

Subpackages by capability:

* :mod:`schubflex.weyl` -- Dynkin diagrams and reflections (no words).
* :mod:`schubflex.closed_forms` -- group orders, quotient dimensions and the
  opposition involution, read off a diagram.
* :mod:`schubflex.poset` -- parabolic-quotient Hasse diagrams, degrees, duals;
  each quotient is built once per process and shared, immutable.
* :mod:`schubflex.diagram` -- the poset record: classes, order and duality
  (re-exported by :mod:`schubflex.poset`).
* :mod:`schubflex.exports` -- the poset's JSON and DOT writers, loaded on the
  first export.
* :mod:`schubflex.classical` -- index arithmetic for Grassmannian and quadric
  Schubert classes.
* :mod:`schubflex.isotropic` -- the same for Lagrangian and orthogonal classes.
* :mod:`schubflex.rigidity` -- multi-rigidity classifiers for all families.
* :mod:`schubflex.witness` -- the Witness record every construction returns.
* :mod:`schubflex.witnesses` -- flexibility constructions on a poset
  (linear spaces, Bertini sections, divisors) and the graded interval and
  cone embeddings.
* :mod:`schubflex.moduli` -- flexibility constructions read off a classical
  index (moduli of curves in flag conditions).
* :mod:`schubflex.tits` -- incidence-variety transforms between quotients.
* :mod:`schubflex.certify` -- the certificate pipeline: every engine's
  witnesses on the e6 and e7 posets.
* :mod:`schubflex.verify` -- decoration and transform-table verification.
* :mod:`schubflex.cli` -- command-line front end (``schubflex``).
* :mod:`schubflex.commands` -- the selector reader and the ``hasse``,
  ``tits`` and ``verify`` handlers.
* :mod:`schubflex.specs` -- the class-spec grammar, its reader and the
  ``classify``, ``degree`` and ``dual`` handlers.
"""

__version__ = "0.1.0"

from .weyl import CartanDatum, build_cartan  # noqa: F401
