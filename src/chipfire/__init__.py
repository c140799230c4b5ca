"""Exact-arithmetic laboratory for the a-b chip-firing game on the integer line.

A vertex holding at least a+b chips fires a chips left and b chips right.
The package provides the brute-force stabilizer (the oracle), exact base-b/a
numeration, the conserved-quantity analysis, the settlement theory of right
parts, a structure-theory fast predictor of final states, and a verification
harness that exercises every claim at desk scale.
"""

from .engine import (
    LEFTMOST,
    PARALLEL_ROUNDS,
    RIGHTMOST,
    ChipState,
    FiringStrategy,
    GameParams,
    new_state,
    oracle_rows,
    oracle_states,
    settle_right,
    stabilize,
    stabilize_line,
)
from .words import (
    EMPTY_WORD,
    DigitWord,
    eval_base,
    string_to_word,
    to_base,
    word_to_string,
)
from .analysis import (
    combine,
    firings_from_M,
    side_values,
    split,
    state_poly_eval,
    state_word,
    weighted_sum,
)
from .settlements import (
    delta_strings,
    dormant_census,
    lemma8_inequalities,
    settlement,
    settlement_next,
)
from .predictor import (
    aa_final,
    binary_trick_left,
    compute_profile,
    elevated_increment,
    final_state,
    left_regular_word,
    lift_noncoprime,
    mirror_word,
    one_b_right_length,
    one_b_settlement,
    r_sequence,
)

__version__ = "0.1.0"
