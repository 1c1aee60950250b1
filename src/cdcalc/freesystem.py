"""A concrete free system of rank 1 for the duplication law, as cosets.

Group elements modulo the subgroup generated by the 0-shifted letters,
multiplied by a * b = a . 1b . phi . 1b^-1, satisfy x(yz) = (xy)(yz), and
the subsystem generated by any single coset is free.  A coset is carried
by a representative word, normally a blueprint, in which case the
originating term is kept alongside: equality of blueprint cosets reduces
to equivalence of the terms.  For cosets of unknown origin only a
necessary criterion is available (the representative difference must
classify as P_zero), so equality may honestly come out `Verdict.UNKNOWN`.

Collapsing the 0-shifted letters as a normal subgroup instead would
trivialize everything: the characteristic relation g.1g.g = 1g.g.0g
forces every generator to die in that quotient.  Cosets, not quotient
groups, are the right home for the operation.
"""

from dataclasses import dataclass
from typing import Optional

from .action import Verdict
from .blueprint import chi, star
from .decide import Classification, classify, decide
from .terms import Node, Term
from .words import Word, inverse


@dataclass(frozen=True)
class Coset:
    rep: Word
    origin: Optional[Term] = None


def coset_of_term(t: Term) -> Coset:
    """The coset of a one-variable term, represented by its blueprint."""
    return Coset(chi(t), t)


def coset_mul(a: Coset, b: Coset) -> Coset:
    """Multiply cosets through star on representatives; origins multiply as
    terms when both are known."""
    origin = None
    if a.origin is not None and b.origin is not None:
        origin = Node(a.origin, b.origin)
    return Coset(star(a.rep, b.rep), origin)


def coset_eq(a: Coset, b: Coset) -> Verdict:
    """Equality of cosets: decided through the terms when both origins are
    known; otherwise NOT_EQUIVALENT when the representative difference is
    not P_zero, and Unknown when it is (necessary, not known sufficient)."""
    if a.origin is not None and b.origin is not None:
        return Verdict.EQUIVALENT if decide(a.origin, b.origin) else Verdict.NOT_EQUIVALENT
    if classify(inverse(a.rep) + b.rep) is not Classification.P_ZERO:
        return Verdict.NOT_EQUIVALENT
    return Verdict.UNKNOWN
