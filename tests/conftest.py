import numpy as np
import pytest

from gphi import sieve


@pytest.fixture
def cold_base_primes(monkeypatch):
    """Empties the process-wide base-prime cache for one test, and returns a
    function that empties it again, so that counts of base-prime builds do
    not depend on which tests ran before."""

    def empty():
        monkeypatch.setattr(sieve, "_cache", (1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))

    empty()
    return empty
