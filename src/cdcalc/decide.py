"""Decision procedures built on the dilation invariant.

dil(i, u) tracks how a positive word u moves the i-th iterated left
subterm: applying u to t sends left^i(t) to an expansion sitting at
left^dil(i,u) of the image.  Only letters at addresses 0^p with p < i
deepen the left spine.  Comparing dil(1, -) of the numerator and denominator
of a redressed word is invariant under equivalence and classifies group
elements into P_minus / P_zero / P_plus; a blueprint difference lies in
P_zero exactly when the two terms are equivalent, which decides the word
problem, first for one-variable terms and then in general by projecting
and comparing one explicit pair of expansions.

Before any of that, both decisions refute pairs whose right-spine
profiles differ (`same_spine`), in O(n) and without redressing.
"""

import enum
from dataclasses import dataclass
from typing import Optional

from .action import apply_word
from .blueprint import chi, require_one_variable
from .redress import Fraction, redress
from .terms import Node, Term, project, right_comb, same_spine
from .words import Word, inverse, positive_addresses


def dil(i: int, u: Word) -> int:
    """Fold of the dilation step over a positive word: a letter at an
    all-zeros address 0^p with p < i bumps the count (the root is 0^0).

    Rewriting at 0^p strictly above the left spine sends the subterm at
    0^i to 0^(i+1); rewriting at or below 0^i, or anywhere off the spine,
    leaves the index alone.
    """
    if i < 0:
        raise ValueError("dil needs i >= 0")
    for addr in positive_addresses(u):
        if len(addr) < i and not addr.strip("0"):
            i += 1
    return i


class Classification(enum.Enum):
    P_MINUS = "P_minus"
    P_ZERO = "P_zero"
    P_PLUS = "P_plus"


def _classify_fraction(fraction: Fraction) -> Classification:
    den = dil(1, fraction.den)
    num = dil(1, fraction.num)
    if den == num:
        return Classification.P_ZERO
    return Classification.P_PLUS if den < num else Classification.P_MINUS


def classify(w: Word, budget: Optional[int] = None) -> Classification:
    """Compare dil(1, -) of the denominator and numerator of w's fraction."""
    return _classify_fraction(redress(w, budget=budget))


def _p_zero_fraction(t: Term, t2: Term, budget: Optional[int]) -> Optional[Fraction]:
    # The pipeline shared by decide and decide_one_var: spine reject, then
    # the blueprint difference of the projections, redressed and classified.
    # None refutes the pair; otherwise the P_zero fraction is returned.
    if not same_spine(t, t2):
        return None
    fraction = redress(inverse(chi(project(t))) + chi(project(t2)), budget=budget)
    if _classify_fraction(fraction) is not Classification.P_ZERO:
        return None
    return fraction


def decide_one_var(t: Term, t2: Term, budget: Optional[int] = None) -> bool:
    """Equivalence of one-variable terms: equal right heights, and the
    blueprint difference must classify as P_zero."""
    require_one_variable(t)
    require_one_variable(t2)
    return _p_zero_fraction(t, t2, budget) is not None


def decide(t: Term, t2: Term, budget: Optional[int] = None) -> bool:
    """Equivalence of arbitrary terms.

    First refute on the right spine: the first-occurrence variable sequence
    of every iterated right subterm (`spine_profile`) is invariant under
    equivalence.  s0*(s1*s2) and (s0*s1)*(s1*s2) have one first-occurrence
    order, so a letter of either sign keeps the sequence of the subterm it
    rewrites and of every subterm around it.  A letter at 1^k 0 b acts
    inside the left factor of level k, so levels 0..k keep their sequences
    and the deeper ones are untouched.  A letter at 1^k rewrites level k
    itself and keeps its right subterm s1*s2, so the right height and the
    deeper levels are untouched too.  A mismatch therefore means "not
    equivalent", and costs O(n) instead of a redressing.

    Otherwise project to one variable and classify the blueprint
    difference; when it passes, extend both terms by a tall right comb,
    apply the fraction's numerator on one side and denominator on the
    other (the blueprint acts on comb-extended terms, so both applications
    are defined, and definedness of positive words only depends on the
    skeleton), and compare the resulting expansions literally: distinct
    terms with one skeleton are never equivalent.  Every "yes" rests on
    that comparison.
    """
    fraction = _p_zero_fraction(t, t2, budget)
    if fraction is None:
        return False
    p = max(t.size, t2.size)
    a = apply_word(Node(t, right_comb(p)), fraction.num)
    b = apply_word(Node(t2, right_comb(p)), fraction.den)
    assert a is not None and b is not None, "fraction must apply to the comb-extended terms"
    return a == b


class Comparison(enum.Enum):
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


def compare(t: Term, t2: Term, budget: Optional[int] = None) -> Comparison:
    """Trichotomy of one-variable terms under iterated left division:
    LESS means t is a proper iterated left divisor of t2."""
    c = classify(inverse(chi(t)) + chi(t2), budget=budget)
    if c is Classification.P_ZERO:
        return Comparison.EQUAL
    return Comparison.LESS if c is Classification.P_PLUS else Comparison.GREATER


class CDLawViolation(ValueError):
    """A multiplication table breaks x(yz) = (xy)(yz); `witness` is (x, y, z)."""

    def __init__(self, witness):
        x, y, z = witness
        super().__init__(f"table violates the law at x={x}, y={y}, z={z}")
        self.witness = witness


@dataclass(frozen=True)
class MulTable:
    """A finite monogenic binary operation: n elements 0..n-1, a generator,
    and an n x n table of products."""

    n: int
    generator: int
    table: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("table must have at least one element")
        if not (0 <= self.generator < self.n):
            raise ValueError("generator index out of range")
        if len(self.table) != self.n or any(len(row) != self.n for row in self.table):
            raise ValueError(f"table must be {self.n}x{self.n}")
        for row in self.table:
            for v in row:
                if not (0 <= v < self.n):
                    raise ValueError(f"table entry {v} out of range")
        reached = {self.generator}
        while True:
            more = {self.table[a][b] for a in reached for b in reached} - reached
            if not more:
                break
            reached |= more
        if len(reached) != self.n:
            raise ValueError("generator does not generate the whole table")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]


def parse_multable(text: str) -> MulTable:
    """Parse the table format: a line `n g`, then n rows of n indices."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty table file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("header must be 'n g'")
    n, g = int(header[0]), int(header[1])
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} rows, found {len(lines) - 1}")
    rows = tuple(tuple(int(v) for v in line.split()) for line in lines[1:])
    return MulTable(n, g, rows)


def _law_violation(table, n: int):
    """The first triple (x, y, z) with x(yz) != (xy)(yz) in an n x n table,
    or None.  An unfilled cell (None) violates nothing."""
    r = range(n)
    for x in r:
        for y in r:
            xy = table[x][y]
            if xy is None:
                continue
            for z in r:
                yz = table[y][z]
                if yz is None:
                    continue
                a, b = table[x][yz], table[xy][yz]
                if a is not None and b is not None and a != b:
                    return x, y, z
    return None


def check_free(m: MulTable) -> bool:
    """Freeness criterion for a finite monogenic table: validate the law
    (CDLawViolation with a witness triple otherwise), then report whether
    left division a -> a*x is acyclic.  It never is: the walk a, a*g,
    (a*g)*g, ... must revisit an element of a finite table, so this is
    False on every valid table."""
    witness = _law_violation(m.table, m.n)
    if witness is not None:
        raise CDLawViolation(witness)
    return False


def enumerate_cd_tables(n: int):
    """Exhaustively search the monogenic multiplication tables of size
    exactly n that satisfy the law, one representative per isomorphism
    class (generator 0, elements numbered in discovery order)."""
    table = [[None] * n for _ in range(n)]
    out = []

    def next_cell(k: int):
        for i in range(k):
            for j in range(k):
                if table[i][j] is None:
                    return i, j
        return None

    def search(k: int) -> None:
        cell = next_cell(k)
        if cell is None:
            if k == n:
                out.append(MulTable(n, 0, tuple(tuple(row) for row in table)))
            return
        i, j = cell
        limit = k + 1 if k < n else k
        for v in range(limit):
            table[i][j] = v
            if _law_violation(table, n) is None:
                search(k + 1 if v == k else k)
            table[i][j] = None

    search(1)
    return out
