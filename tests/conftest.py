import pytest
from hypothesis import settings

settings.register_profile("covercert", deadline=None, max_examples=100)
settings.load_profile("covercert")


def pytest_terminal_summary(terminalreporter):
    """Repeat the one-line acceptance verdicts after the test summary."""
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def zeroed_last_hit(monkeypatch):
    """Zero, at the last level of every run, the hit count of the first fiber with a hit.

    That fiber still holds a level-set member, which the update cannot thin
    at delta = 0: the pipeline must notice.
    """
    from covercert import distortion

    real_level_set, real_hit_fractions = distortion.level_set, distortion.hit_fractions
    # the level sets of the last level that level_set built, one per run
    last = []

    def level_set(sys, ladder, j):
        bset = real_level_set(sys, ladder, j)
        if j == ladder.depth:
            last.append(bset)
        return bset

    def zeroed(prev, bset):
        counts = real_hit_fractions(prev, bset)
        if not any(bset is b for b in last):
            return counts
        y = next(y for y, c in enumerate(counts) if c)
        return counts[:y] + bytes(1) + counts[y + 1 :]

    monkeypatch.setattr(distortion, "level_set", level_set)
    monkeypatch.setattr(distortion, "hit_fractions", zeroed)
