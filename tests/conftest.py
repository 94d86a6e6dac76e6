import pytest

from martfock import subsets

TEST_BUDGET = 256 << 20


@pytest.fixture(autouse=True)
def memory_budget(monkeypatch):
    """Every test plans against 256 MiB, whatever this machine's memory."""
    monkeypatch.setattr(subsets, "MEMORY_BUDGET", TEST_BUDGET)
