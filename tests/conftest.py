import pytest

import invword.constructor as constructor


@pytest.fixture(autouse=True)
def _cold_canonical_words():
    # a test that spies on the restart or the stored class words, or patches
    # CLASS_WORDS, must see every canonical form solved afresh, and must
    # leave no word computed under its patches to the tests after it
    constructor._canonical_word.cache_clear()
    yield
    constructor._canonical_word.cache_clear()
