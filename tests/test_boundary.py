"""Every public entry point checks its arguments by base's rules.

A support index or a dimension goes through the integer rule (least 0), a
penalty or a scale through the real rule with its lower bound, a matrix
through check_square, a frame through its numeric and finite part, and
anything they reject raises InvalidInput: never a raw numpy error, and
never a silently wrong answer.  The fps config values have their rows in
test_cli's malformed-value table.
"""

import math

import numpy as np
import pytest

from fantope import (SolverConfig, SupportSet, SymMat, as_support, check_kkt, check_lcc,
                     entrywise_error, frobenius_bound_check, gen_toy, l11_row_bound,
                     procrustes_align, sign_rank_one, solve_fps, support_error)
from fantope.errors import InvalidInput

TOY = gen_toy(0.1).Sigma
TOY_SOL = solve_fps(TOY, SolverConfig(k=1, rho=0.1))

# each input below was accepted, or failed with a numpy or Python error,
# before its argument went through the rule; (-1,) is the rule's bound
BAD_ARGUMENTS = {
    "support-half": lambda: support_error((0.5,), (0,)),
    "support-bool": lambda: SupportSet((True,)),
    "support-string": lambda: as_support("12"),
    "support-inf": lambda: SupportSet((math.inf,)),
    "support-negative": lambda: SupportSet((-1,)),
    "lcc-fractional-support": lambda: check_lcc(TOY, 1, (0.9, 1.2)),
    "kkt-rho-string": lambda: check_kkt(TOY, TOY_SOL, "a"),
    "kkt-rho-bool": lambda: check_kkt(TOY, TOY_SOL, True),
    "kkt-rho-negative": lambda: check_kkt(TOY, TOY_SOL, -1.0),
    "kkt-rho-nan": lambda: check_kkt(TOY, TOY_SOL, math.nan),
    "kkt-support-tol-zero": lambda: check_kkt(TOY, TOY_SOL, 0.1, support_tol=0.0),
    "frobenius-s-garbage": lambda: frobenius_bound_check(TOY, "garbage", 1, (0, 1), 0.1,
                                                         TOY_SOL),
    "frobenius-s-dimension": lambda: frobenius_bound_check(TOY, np.eye(4), 1, (0, 1), 0.1,
                                                           TOY_SOL),
    "solve-non-numeric": lambda: solve_fps("x", SolverConfig(k=1)),
    "symmat-ragged": lambda: SymMat.from_array([[1, 2], [3]]),
    "sign-rank-one-non-square": lambda: sign_rank_one(np.ones((3, 2)), (0, 1, 2)),
    "l11-row-bound-array": lambda: l11_row_bound(np.eye(3)),
    "entrywise-error-dimensions": lambda: entrywise_error(np.eye(3), np.eye(4)),
    "procrustes-string": lambda: procrustes_align("x", np.eye(2)),
    "procrustes-ragged": lambda: procrustes_align([[1.0, 0.0], [0.0]], np.eye(2)),
    "complement-half": lambda: SupportSet((0,)).complement(2.5),
    "complement-string": lambda: SupportSet((0,)).complement("3"),
    "complement-bool": lambda: SupportSet((0,)).complement(True),
}


@pytest.mark.parametrize("call", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_argument_is_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


def test_integer_valued_indices_are_stored_as_int():
    j = SupportSet((2.0, np.int64(1)))
    assert j.indices == (1, 2) and all(type(i) is int for i in j.indices)
    # membership compares values, so 1.5 is not index 1
    assert 2.0 in j and np.int64(1) in j and 1.5 not in j
