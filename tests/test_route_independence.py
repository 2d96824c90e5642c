"""The five routes to V(r, n) run no common package code outside the
arithmetic, so a fault in one route cannot hide in another.

Each route entry runs once under ``sys.setprofile``, and the package
functions it enters are recorded by module and ``co_name`` (``co_qualname``
needs Python 3.11).  ``algebra`` and ``_validate`` are left out: every route
shares the exact arithmetic and the argument check on purpose.
"""

from __future__ import annotations

import sys
from inspect import CO_GENERATOR
from itertools import combinations

from cayleyband.bandmatrix import band_matrix, det_bareiss, det_leibniz
from cayleyband.continuants import band_continuants, cycle_distribution_bruteforce
from cayleyband.egf import egf_coefficients, factorization_check, ode_residual

SHARED_MODULES = {"cayleyband.algebra", "cayleyband._validate"}
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

ROUTES = {
    "recurrence": {
        ("continuants", "band_continuants"),
        ("continuants", "rising_factorial"),
        ("continuants", "falling_factorial"),
    },
    "bareiss": {("bandmatrix", "det_bareiss")},
    "leibniz": {("bandmatrix", "det_leibniz"), ("bandmatrix", "_permutation_sign")},
    "enumeration": {
        ("continuants", "cycle_distribution_bruteforce"),
        ("continuants", "_require_enumerable"),
        ("continuants", "_cycle_lengths"),
        ("continuants", "_split"),
    },
    "egf": {
        ("egf", "egf_coefficients"),
        ("egf", "egf_series"),
        ("egf", "build_basis"),
        ("egf", "_scaled"),
    },
}

# The checks that reach a route on purpose, with the reason for each route
# they share.  Any other sharing fails until it is named here.
NAMED_SHARING = {
    "factorization_check": {
        "egf": "it takes exp of each half of the same logarithm basis",
        "recurrence": "it compares the two pure classes with the recurrence at (1, 0) and (0, 1)",
    },
    "ode_residual": {"egf": "it checks the ODE on the series that egf_coefficients reads"},
}


def functions_run(call) -> set[tuple[str, str]]:
    """(module, function) for every package function that call enters."""
    seen: set[tuple[str, str]] = set()

    def profile(frame, event, arg):
        code = frame.f_code
        module = frame.f_globals.get("__name__", "")
        if (
            event == "call"
            and module.startswith("cayleyband.")
            and module not in SHARED_MODULES
            and code.co_name not in COMPREHENSIONS
            and not code.co_flags & CO_GENERATOR
        ):
            seen.add((module[len("cayleyband.") :], code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return seen


def test_each_route_runs_its_own_functions_only():
    matrix = band_matrix(3, 6)
    entries = {
        "recurrence": lambda: band_continuants(3, 6),
        "bareiss": lambda: det_bareiss(matrix),
        "leibniz": lambda: det_leibniz(matrix),
        "enumeration": lambda: cycle_distribution_bruteforce(3, 6),
        "egf": lambda: egf_coefficients(3, 6),
    }
    seen = {route: functions_run(call) for route, call in entries.items()}
    assert seen == ROUTES
    for first, second in combinations(seen, 2):
        assert not seen[first] & seen[second], (first, second)


def test_checks_share_only_the_routes_they_name():
    checks = {
        "factorization_check": lambda: factorization_check(3, 6),
        "ode_residual": lambda: ode_residual(3, 6),
    }
    for name, call in checks.items():
        seen = functions_run(call)
        shared = {route for route, functions in ROUTES.items() if functions & seen}
        assert shared == set(NAMED_SHARING[name]), name
