"""Derandomized hypothesis properties shared by the test modules.

hypothesis, and sympy where a property compares against it, are
test-only and imported inside each test, so the other tests of a module
run without them.  Each property runs on a fixed sequence of small
examples over QQ, GF(7) and GF(10007).
"""

import pytest

from idealizer.fields import QQ, PrimeField

FIELDS = (QQ, PrimeField(7), PrimeField(10007))


def property_test(build, needs=(), max_examples=40):
    """Decorate ``check(field, ...)`` to run on the examples ``build(st)`` draws.

    The test is skipped when hypothesis or a module named in ``needs`` is
    not installed.
    """

    def decorate(check):
        def test():
            hyp = pytest.importorskip("hypothesis")
            for name in needs:
                pytest.importorskip(name)
            from hypothesis import strategies as st

            settings = hyp.settings(
                derandomize=True, max_examples=max_examples, deadline=None, database=None
            )
            settings(hyp.given(build(st))(lambda args: check(*args)))()

        # not functools.wraps: pytest would read check's parameters as fixtures
        test.__name__ = check.__name__
        return test

    return decorate
