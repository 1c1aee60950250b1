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
from .blueprint import blueprint_action_check, chi, chi_star, star
from .decide import (
    CDLawViolation,
    Classification,
    Comparison,
    MulTable,
    check_free,
    classify,
    compare,
    decide,
    decide_one_var,
    dil,
    enumerate_cd_tables,
    parse_multable,
)
from .errors import ParseError, SizeLimitExceeded, StepBudgetExceeded
from .freesystem import UNKNOWN, Coset, coset_eq, coset_mul, coset_of_term
from .garside import (
    alpha_power,
    delta,
    delta_bound,
    delta_left_factor,
    delta_transport,
    lcm,
    partial,
    partial_iter,
)
from .redress import (
    Fraction,
    cd_relations,
    check_cube,
    complement,
    f_cd,
    group_equiv,
    nu,
    pos_equiv,
    redress,
)
from .terms import (
    Leaf,
    Node,
    Term,
    canonicalize,
    first_occurrences,
    is_canonical,
    is_injective,
    left_iter,
    match,
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
    parse_address,
    parse_word,
    pos_word,
    positive_addresses,
    render_word,
    shift,
)

__version__ = "0.1.0"
