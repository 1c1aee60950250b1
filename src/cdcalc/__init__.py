"""cdcalc: the rewriting calculus of the identity x(yz) = (xy)(yz).

Terms, addressed rewriting operators, word redressing to fractions,
Garside-style delta words, blueprints, decision procedures for the word
problems (positive words, the group, and term equivalence), and a coset
realization of the free rank-1 system.
"""

from .action import (
    Trace,
    Verdict,
    apply_letter,
    apply_word,
    apply_word_partial,
    expansions,
    iter_expansions,
    oracle_equiv,
    trace,
)
from .blueprint import chi, chi_star, star
from .decide import Classification, Comparison, classify, compare, decide, dil
from .errors import ParseError, SizeLimitExceeded, StepBudgetExceeded
from .freesystem import Coset, coset_eq, coset_mul, coset_of_term
from .garside import delta, delta_transport, lcm, partial, partial_iter
from .redress import Fraction, complement, f_cd, group_equiv, pos_equiv, redress
from .terms import (
    Leaf,
    Node,
    Term,
    canonicalize,
    first_occurrences,
    parse_term,
    project,
    render_term,
    replace,
    right_comb,
    right_height,
    rightmost_variable,
    same_spine,
    size,
    skeleton,
    spine_profile,
    substitute,
    subterm,
    unify,
    variables,
)
from .words import (
    Letter,
    Word,
    inverse,
    is_positive,
    parse_word,
    pos_word,
    positive_addresses,
    render_word,
    shift,
)

__version__ = "0.1.0"
