"""Shared test plumbing: collect acceptance verdict lines and echo them
in the terminal summary, where they survive output capture; count the
L^p norm integrals a test makes."""

import pytest

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def norm_calls(monkeypatch):
    """The configuration of every quadrature.lp_norms call, in order."""
    from lprim import quadrature

    seen = []
    engine = quadrature.lp_norms

    def counting(f, p, cfg=None, *args, **kwargs):
        seen.append(cfg)
        return engine(f, p, cfg, *args, **kwargs)

    monkeypatch.setattr(quadrature, "lp_norms", counting)
    return seen
