"""The contract of the exhaustive ML oracle in ``oracles.py``: its search bound and its tie rule."""

import numpy as np
import pytest

from oracles import SearchSpaceError, ml_search
from osicsim.modem import QAM16, QPSK


class TestMlDetect:
    def test_tie_goes_to_lowest_candidate(self):
        # y = 0 with the identity channel: all QPSK candidates are equidistant
        assert ml_search(np.eye(2), np.zeros(2), QPSK).tolist() == [0, 0]

    def test_search_space_guard(self):
        with pytest.raises(SearchSpaceError):
            ml_search(np.eye(8), np.zeros(8), QAM16)  # 8 * 4 = 32 bits > 16
