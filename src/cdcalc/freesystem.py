"""A concrete free system of rank 1 for the duplication law, as cosets.

Group elements modulo the subgroup generated by the 0-shifted letters,
multiplied by a * b = a . 1b . phi . 1b^-1, satisfy x(yz) = (xy)(yz), and
the subsystem generated by any single coset is free.  A `Coset` is the
named pair (rep, origin) of a representative word, normally a blueprint,
and then the originating term: equality of blueprint cosets reduces to
equivalence of the terms.  For cosets of unknown origin, a sufficient
criterion (the representative difference redresses into the subgroup) and
a necessary one (it is P_zero) leave a gap, honestly `Verdict.UNKNOWN`.

Collapsing the 0-shifted letters as a normal subgroup instead would
trivialize everything: the characteristic relation g.1g.g = 1g.g.0g
forces every generator to die in that quotient.  Cosets, not quotient
groups, are the right home for the operation.
"""

from typing import NamedTuple, Optional

from .action import Verdict
from .blueprint import chi, star
from .decide import Classification, _class, decide
from .redress import DEFAULT_BUDGET, _reverse
from .terms import Node, Term
from .words import Word, inverse


class Coset(NamedTuple):
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
    known.  Otherwise EQUIVALENT when the representative difference
    redresses into the subgroup, every letter under address 0;
    NOT_EQUIVALENT when it is not P_zero; and Unknown in between.  The
    difference is freely reduced first, which keeps its group element:
    redressing does not cancel a letter next to its own inverse, so
    chi(t)^-1.chi(t) need not redress to the empty fraction."""
    if a.origin is not None and b.origin is not None:
        return Verdict.EQUIVALENT if decide(a.origin, b.origin) else Verdict.NOT_EQUIVALENT
    reduced = []
    for addr, sign in inverse(a.rep) + b.rep:
        if reduced and reduced[-1] == (addr, -sign):
            reduced.pop()
        else:
            reduced.append((addr, sign))
    num, den = _reverse(reduced, DEFAULT_BUDGET)
    if all(addr.startswith("0") for addr in num + den):
        return Verdict.EQUIVALENT
    if _class(num, den) is not Classification.P_ZERO:
        return Verdict.NOT_EQUIVALENT
    return Verdict.UNKNOWN
