import pytest

from minorbit import quiveralg


@pytest.fixture
def understate_target(monkeypatch):
    """Make the corank target of one (n, a, b, l) cell one too small, so
    the engine's mod-p dimension no longer meets it; start from a fresh
    engine for that n, and restore the real target and the cached
    engines afterwards."""
    true_target = quiveralg._cell_target

    def understate(cell):
        def target(n, a, b, length):
            t = true_target(n, a, b, length)
            return t - 1 if (n, a, b, length) == cell else t

        monkeypatch.setattr(quiveralg, "_cell_target", target)
        monkeypatch.setattr(quiveralg, "_engines", {
            n: eng for n, eng in quiveralg._engines.items() if n != cell[0]})

    return understate


@pytest.fixture
def fresh_engines(monkeypatch):
    """Start from no cached engines, so a patched generator set or target
    is read by every engine the test builds; the real cache comes back
    afterwards."""
    monkeypatch.setattr(quiveralg, "_engines", {})
