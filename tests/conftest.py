"""Shared fixtures: every test starts and ends with an empty stream memo.

The memo keeps draws per process, so without this a test could pass on
values an earlier test drew, and a memo key that misses a value its draw
reads would show only in some test orders. A test that warms the memo on
purpose, and clears it where it needs a cold one, marks itself
`warm_stream_memo` to opt out of the clearing before it.
"""

import pytest

from stalelab.seeding import STREAM_MEMO


def pytest_configure(config):
    config.addinivalue_line("markers", "warm_stream_memo: the test clears and warms the stream memo itself")


@pytest.fixture(autouse=True)
def cold_stream_memo(request):
    if request.node.get_closest_marker("warm_stream_memo") is None:
        STREAM_MEMO.clear()
    yield
    STREAM_MEMO.clear()
