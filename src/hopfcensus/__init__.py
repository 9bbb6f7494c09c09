"""Exact-arithmetic tools for the census of low-dimensional semisimple Hopf algebras.

Submodules:

* ``cyclotomic`` -- exact arithmetic in cyclotomic fields Q(zeta_n): the scalar
  type of every value the package returns, and the integer numerators in
  Z[zeta_n] that the Hopf kernels run on.
* ``groups``     -- finite groups by multiplication table, with the derived
  invariants (center, classes, centralizers, the character table mod p,
  bicharacters).
* ``fusion``     -- based rings of irreducible characters: axiom verification,
  stabilizers, standard subalgebras and the infeasibility search.
* ``census``     -- enumeration of algebra-type signatures for a given
  dimension under divisibility rules, with elimination traces.
* ``hopfcore``   -- structure-constant Hopf algebras: axiom checks, the
  8-dimensional Kac-Paljutkin algebra, Drinfeld-double types, cocycle twists.
* ``cli``        -- command-line front end emitting stable JSON reports.
"""

from hopfcensus.cyclotomic import CycNumber

__all__ = ["CycNumber"]
__version__ = "0.1.0"
