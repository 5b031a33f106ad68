import multiprocessing
import threading

import pytest

from noisecutmix import classifier


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Fail a test that leaves a Python thread or a multiprocessing child running:
    the sampler's threads and the experiment pool's workers live only inside
    the call that starts them."""
    threads, children = set(threading.enumerate()), set(multiprocessing.active_children())
    yield
    left = [t for t in threading.enumerate() if t not in threads]
    left += [c for c in multiprocessing.active_children() if c not in children]
    assert not left, f"left running after the test: {left}"


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
