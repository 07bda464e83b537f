"""Validation of state-space model files: every rejection names the
offending entry, word for word, whichever parsing path finds it."""

import numpy as np
import pytest

from stripgain import InvalidInput
from stripgain.modelio import parse_model_data


def _ss(**fields):
    obj = {
        "kind": "ss",
        "A": [[-1.0, 0.5], [0.0, -2.0]],
        "B": [[1.0], [0.0]],
        "C": [[1.0, 1.0]],
        "D": [[0.0]],
    }
    obj.update(fields)
    return obj


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"A": [[-1.0, True], [0.0, -2.0]]}, "m.A[0][1] is not a number"),
        ({"A": [[False, 0.5], [0.0, -2.0]]}, "m.A[0][0] is not a number"),
        ({"A": [[-1.0, 0.5], ["0", -2.0]]}, "m.A[1][0] is not a number"),
        ({"A": [[-1.0, None], [0.0, -2.0]]}, "m.A[0][1] is not a number"),
        ({"A": [[-1.0, 0.5], [0.0, float("nan")]]}, "m.A[1][1] must be finite"),
        ({"A": [[float("inf"), 0.5], [0.0, -2.0]]}, "m.A[0][0] must be finite"),
        ({"A": [[-1.0, 0.5], [0.0]]}, "m.A[1] must have 2 entries, got 1"),
        ({"A": [[-1.0, 0.5], [0.0, -2.0, 3.0]]}, "m.A[1] must have 2 entries, got 3"),
        ({"A": [[-1.0, 0.5], (0.0, -2.0)]}, "m.A[1] must be a list"),
        ({"A": [[-1.0, 0.5], "ab"]}, "m.A[1] must be a list"),
        ({"B": [[1.0], [0.0], [2.0]]}, "m.B must have 2 rows, got 3"),
        ({"B": 5.0}, "m.B must be a list of rows"),
        ({"C": [[1.0, -float("inf")]]}, "m.C[0][1] must be finite"),
        ({"D": [[True]]}, "m.D[0][0] is not a number"),
        ({"B": [[1.0, 0.0], [0.0, 1.0]]}, "m.B[0] must have 1 entries, got 2"),
        ({"D": [[0.0], [0.0]]}, "m.D must have 1 rows, got 2"),
    ],
)
def test_matrix_rejections_name_the_entry(fields, message):
    with pytest.raises(InvalidInput) as exc:
        parse_model_data(_ss(**fields), where="m")
    assert str(exc.value) == message


def test_matrix_reports_the_first_bad_entry_in_row_order():
    A = [[-1.0, "x"], [float("nan"), -2.0]]
    with pytest.raises(InvalidInput) as exc:
        parse_model_data(_ss(A=A), where="m")
    assert str(exc.value) == "m.A[0][1] is not a number"


def test_matrix_accepts_ints_and_float_subclasses():
    kind, ss = parse_model_data(_ss(A=[[-1, 0], [np.float64(0.25), -2]]), where="m")
    assert kind == "ss"
    assert ss.A.dtype == float
    assert np.array_equal(ss.A, [[-1.0, 0.0], [0.25, -2.0]])
