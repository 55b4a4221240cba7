import numpy as np
import pytest

from gphi import diophantine, sieve


@pytest.fixture
def cold_base_primes(monkeypatch):
    """Empties the process-wide base-prime cache for one test, and returns a
    function that empties it again, so that counts of base-prime builds do
    not depend on which tests ran before."""

    def empty():
        monkeypatch.setattr(sieve, "_cache", (1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))

    empty()
    return empty


@pytest.fixture
def failing_checkpoint_write(monkeypatch):
    """diophantine.write_checkpoint, made to raise OSError("disk full") on
    its second call, as a full disk would after the first segment."""
    write = diophantine.write_checkpoint
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError("disk full")
        write(*args)

    monkeypatch.setattr(diophantine, "write_checkpoint", failing)
