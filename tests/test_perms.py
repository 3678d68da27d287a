"""Permutation entries must be ints: floats and bools are refused everywhere.

The distance's other tests are in ``test_distance.py``, and so are the
cases of this check that go through ``kendall_weight``, the first argument
of ``kendall_distance`` and ``verify_min_distance``.
"""

import pytest

from kendallcodes.oracle import kendall_distance


NOT_INTS = [(1.0, 2.0), (2.0, 1.0), (True, 2), (2, True), (1, 2.0)]
CALLS = {
    "kendall_distance_second": lambda bad: kendall_distance((1, 2), bad),
}


@pytest.mark.parametrize("bad", NOT_INTS, ids=repr)
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_entries_must_be_ints(call, bad):
    # floats and bools compare equal to 1 and 2, but are no permutation entries
    with pytest.raises(ValueError, match="not a permutation"):
        call(bad)
