import pytest

import invword.canonical as canonical
import invword.constructor as constructor


@pytest.fixture(autouse=True)
def _cold_memos():
    # a test that spies on the restart, the stored class words or the
    # factoring, or patches CLASS_WORDS, must see every canonical form
    # solved and every characteristic polynomial factored afresh, and must
    # leave nothing computed under its patches to the tests after it
    memos = (constructor._canonical_word, canonical._factorization)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()
