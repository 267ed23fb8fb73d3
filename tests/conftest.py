"""The ``zetareg.verify`` checks as a fixture; each runs at most once per test run."""

import pytest

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
