import pytest

from martfock import subsets

TEST_BUDGET = 256 << 20


@pytest.fixture(autouse=True)
def memory_budget(monkeypatch):
    """Every test plans against 256 MiB, whatever this machine's memory."""
    monkeypatch.setattr(subsets, "MEMORY_BUDGET", TEST_BUDGET)


@pytest.fixture
def no_plan(monkeypatch):
    """TruncatedDomain.plan fails, so a refusal seen under this fixture is
    made before any plan, and so before any read."""
    def refuse(domain, bytes_per_mask):
        raise AssertionError(f"planned {bytes_per_mask} bytes per mask over {domain}")

    monkeypatch.setattr(subsets.TruncatedDomain, "plan", refuse)
