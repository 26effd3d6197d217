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
def tamper_level(monkeypatch):
    """tamper(q, mask=None, counts=None), the tests' one way to fault a level.

    At the level mod q, level_set returns a LevelSet of mask(mask), which
    the level's gate must refuse before hit_fractions reads it, and
    hit_fractions returns counts(counts).  Each call replaces the last.
    """
    from covercert import distortion

    real_level_set, real_hit_fractions = distortion.level_set, distortion.hit_fractions

    def tamper(q, mask=None, counts=None):
        changed = []

        def level_set(sys, ladder, j):
            bset = real_level_set(sys, ladder, j)
            if mask is None or bset.modulus != q:
                return bset
            changed.append(distortion.LevelSet(mask(bytearray(bset.mask))))
            return changed[-1]

        def hit_fractions(prev, bset):
            assert not any(bset is b for b in changed), "hit_fractions read a mask the gate refuses"
            got = real_hit_fractions(prev, bset)
            return got if counts is None or bset.modulus != q else counts(got)

        monkeypatch.setattr(distortion, "level_set", level_set)
        monkeypatch.setattr(distortion, "hit_fractions", hit_fractions)

    return tamper
