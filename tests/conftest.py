"""The `announce` fixture of the acceptance criteria: each verdict line is
kept and printed in the terminal summary, where output capture, which
swallows what a test writes while it runs, does not reach."""

import pytest

VERDICTS = pytest.StashKey[list]()


def pytest_configure(config):
    config.stash[VERDICTS] = []


@pytest.fixture
def announce(request):
    def _report(num, name, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {num} {name}: {verdict}"
        if detail:
            line += f"  ({detail})"
        request.config.stash[VERDICTS].append(line)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter, config):
    lines = config.stash[VERDICTS]
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
