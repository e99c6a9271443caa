import pytest

import invword.canonical as canonical


@pytest.fixture(autouse=True)
def _cold_memos():
    # a test that spies on the factoring, or patches what it reads, must see
    # every characteristic polynomial factored afresh, and must leave
    # nothing computed under its patches to the tests after it
    canonical._factorization.cache_clear()
    yield
    canonical._factorization.cache_clear()
