"""Shared fixtures for the test suite, its marks and its Hypothesis profile."""

from __future__ import annotations

import pytest

from repro.core.problem import flat_problem, unscoped_problem
from repro.corpus.seeds import paper_seed_programs

try:
    from hypothesis import settings
except ImportError:
    # Only the property tests need Hypothesis; the suites that run without
    # it still get the marks below.
    pass
else:
    # Every run draws the same examples (seeded from each test's own
    # source), so two runs of the suite test the same inputs, and no example
    # database carries failures from one run into the next.
    settings.register_profile("derandomized", derandomize=True)
    settings.load_profile("derandomized")


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line("markers", "slow: a test that takes more than a few seconds")


@pytest.fixture(scope="session")
def seeds() -> dict[str, str]:
    """The hand-written seed corpus."""
    return paper_seed_programs()


@pytest.fixture()
def fig7_problem():
    """The paper's Figure 7 / Example 6 problem: 3 global holes over {a, b}, one
    local scope declaring {c, d} with 2 holes."""
    return flat_problem("fig7", ["a", "b"], [(["c", "d"], 2)], 3)


@pytest.fixture()
def fig5_problem():
    """The paper's Figure 5 problem: 6 unscoped holes over {a, b}."""
    return unscoped_problem("fig5", 6, ["a", "b"])


FIG6_SOURCE = """
int main() {
    int a = 1, b = 0;
    if (a) {
        int c = 3, d = 5;
        b = c + d;
    }
    printf("%d", a);
    printf("%d", b);
    return 0;
}
"""


@pytest.fixture()
def fig6_source() -> str:
    """The paper's Figure 6 C program."""
    return FIG6_SOURCE
