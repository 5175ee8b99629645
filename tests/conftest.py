"""Shared test plumbing: acceptance-criteria reporting and the Fraction
solve that is the oracle of linalg.integer_kernel_vector.

Acceptance tests call record_criterion(); the collected lines are printed
in a dedicated section at the end of the pytest run so every criterion's
pass/fail status is visible in normal (captured) runs.
"""

from semiconv._rat import ZERO
from semiconv.linalg import rref

_ACCEPTANCE_LINES = []


def solve(rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][-1]
    return x


def record_criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number:2d}: {description}"
    if detail:
        line += f" [{detail}]"
    _ACCEPTANCE_LINES.append((number, line))
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
