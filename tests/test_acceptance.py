"""Acceptance criteria 01-10, each decided by ``zetareg verify`` checks.

Each criterion prints a single pass/fail line (visible with ``pytest -s``
or on failure); the checks no criterion names run by name below.
"""

import pytest

from zetareg.verify import CHECKS

CRITERIA = {
    1: ("riemann-reduction", ("riemann_reduction",)),
    2: ("integer-trace-identities", ("trace_routes", "trace_known_values")),
    3: ("conclusion-triple", ("trace_known_values",)),
    4: ("closed-form-fractional", ("closed_form_regulator",)),
    5: ("continuity-at-integers", ("integer_continuity",)),
    6: ("regularized-products", ("regularized_products",)),
    7: ("fractional-operator-eigen-identity", ("eigen_identity",)),
    8: ("route-equivalence", ("route_equivalence", "rho_invariance")),
    9: ("singular-subtraction-limit", ("direct_sum_asymptotics",)),
    10: ("branch-map-sanity", ("branch_map_sanity",)),
}
OTHER_CHECKS = [name for name in (c.__name__.removeprefix("check_") for c in CHECKS)
                if all(name not in checks for _, checks in CRITERIA.values())]


def criterion(num, verify_check):
    name, checks = CRITERIA[num]
    results = [verify_check(c) for c in checks]
    ok = all(r.status == "pass" for r in results)
    detail = "; ".join(f"{r.name}: {r.detail}" for r in results)
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_riemann_reduction(verify_check):
    criterion(1, verify_check)


def test_criterion_02_integer_trace_identities(verify_check):
    criterion(2, verify_check)


def test_criterion_03_conclusion_triple(verify_check):
    criterion(3, verify_check)


def test_criterion_04_closed_form_fractional(verify_check):
    criterion(4, verify_check)


def test_criterion_05_continuity_at_integers(verify_check):
    criterion(5, verify_check)


def test_criterion_06_regularized_products(verify_check):
    criterion(6, verify_check)


def test_criterion_07_eigen_identity(verify_check):
    criterion(7, verify_check)


def test_criterion_08_route_equivalence(verify_check):
    criterion(8, verify_check)


def test_criterion_09_singular_subtraction_limit(verify_check):
    criterion(9, verify_check)


def test_criterion_10_branch_map_sanity(verify_check):
    criterion(10, verify_check)


@pytest.mark.parametrize("name", OTHER_CHECKS)
def test_verify_check(name, verify_check):
    result = verify_check(name)
    assert (result.name, result.status) == (name, "pass"), result.detail
