import math

import pytest

from erkn import NU_GRID, fpu_system


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture(scope="session")
def fpu3():
    """The benchmark lattice: m=3, omega=50."""
    return fpu_system(3, 50.0)


@pytest.fixture(scope="session")
def check_grid():
    """`check`'s grid at the operating point nu (see `methods.check_reports`),
    point by point, as the oracle of the tests: NU_GRID, then n <= 1000 evenly
    spaced points on (10, nu]."""
    def grid(nu: float) -> list:
        n = min(1000, math.ceil(10.0 * (nu - 10.0)))
        return [*NU_GRID, *(nu - (nu - 10.0) * (n - k) / n for k in range(1, n + 1))]

    return grid


@pytest.fixture
def acceptance_log(request):
    """Record one human-readable pass/fail line per acceptance criterion."""
    lines = request.config._acceptance_lines

    def record(line: str) -> None:
        lines.append(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
