import pytest

from noisecutmix import classifier


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread-count getter; the count is 2 during the test and restored after."""
    blas = classifier._openblas_threads()
    if blas is None:
        pytest.skip("numpy loaded no OpenBLAS")
    get, set_ = blas
    before = get()
    set_(2)
    yield get
    set_(before)
