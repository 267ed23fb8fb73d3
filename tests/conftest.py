"""Shared fixtures: the ``zetareg.verify`` checks, each run at most once per
test run, and the Laurent trace route over a whole range of orders."""

from math import factorial

import pytest

from zetareg.generator import build_phi
from zetareg.special import zeta_neg_int
from zetareg.verify import CHECKS

CHECKS_BY_NAME = {check.__name__.removeprefix("check_"): check for check in CHECKS}


@pytest.fixture(scope="session")
def verify_check():
    """``verify_check(name)`` is the result of ``zetareg.verify.check_<name>()``."""
    results = {}

    def run(name):
        if name not in results:
            results[name] = CHECKS_BY_NAME[name]()
        return results[name]
    return run


@pytest.fixture(scope="session")
def laurent_traces():
    """``laurent_traces(g, M)`` lists ``trace_laurent_oracle(g, m)`` for
    m = 0..M by the same route (phi**(m+1) by repeated dense multiplication,
    the reciprocal last, its z**0 Laurent coefficient at index m+1), with
    the powers shared between orders instead of rebuilt for each m."""
    def run(g, M):
        phi = build_phi(g, M + 2)
        power = phi
        out = []
        for m in range(M + 1):
            if m:
                power = power * phi
            laurent = power.truncate(m + 1).reciprocal()
            out.append(zeta_neg_int(m) + factorial(m) * laurent[m + 1])
        return out
    return run
