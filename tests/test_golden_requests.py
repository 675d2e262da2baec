"""Every device request path against its golden per-request digest.

Each cell runs one workload on one device family (see
``tests/golden_fixtures.py``) and must reproduce the recorded completion
sequence, stat counters, scheduled-event count, and -- with a tracer
attached -- every stage span, bit for bit.
"""

import pytest
from golden_fixtures import DEVICE_REQUESTS, device_cells, load

CELLS = device_cells()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_device_requests_match_golden(name):
    assert CELLS[name]() == load(DEVICE_REQUESTS)[name]
