"""The package namespace resolves its public names on first access, and
its value classes are plain frozen classes."""

import os
import subprocess
import sys
from fractions import Fraction
from importlib import import_module

import pytest

import idealizer
from idealizer import suite
from idealizer.automorphism import AutoMap, ProjPoint
from idealizer.config import RingConfig
from idealizer.fields import QQ, PrimeField, RationalField, Value
from idealizer.linalg import poly_ambient, span
from idealizer.orbit import multiplicative_independence, orbit_points
from idealizer.poly import parse_poly
from idealizer.report import PASS, CheckRecord, VerificationReport

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_config_import_leaves_the_suite_unloaded():
    code = (
        "import sys, idealizer.config\n"
        "heavy = ['idealizer.' + m for m in ('suite', 'ext', 'segre', 'report')]\n"
        "print(','.join(m for m in heavy if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env(), check=True)
    assert out.stdout.strip() == ""


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # -S: no module that site imports may load them first
    code = (
        "import sys, idealizer.cli\n"
        "print(','.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    cmd = [sys.executable, "-S", "-c", code]
    out = subprocess.run(cmd, capture_output=True, text=True, env=_env(), check=True)
    assert out.stdout.strip() == ""


# Per value class: a maker whose every call gives an equal value, and a
# different value of the same class (None when the class has one value).
VALUES = {
    "RingConfig": (lambda: RingConfig(max_degree=7), RingConfig(max_degree=8)),
    "RationalField": (RationalField, None),
    "PrimeField": (lambda: PrimeField(7), PrimeField(11)),
    "AutoMap": (
        lambda: AutoMap.diagonal_family([2, Fraction(1, 3)], QQ),
        AutoMap.diagonal_family([2, 3], QQ),
    ),
    "ProjPoint": (lambda: ProjPoint.make([2, 4, 6], QQ), ProjPoint.make([1, 2, 4], QQ)),
    "Ambient": (lambda: poly_ambient(3, 2), poly_ambient(3, 3)),
    "GradedSubspace": (
        lambda: span([[(0, 2), (2, 4)]], poly_ambient(3, 1), QQ),
        span([[(0, 1)]], poly_ambient(3, 1), QQ),
    ),
    "HomogPoly": (lambda: parse_poly("x0*x1 + 1/2*x2^2", 3, QQ), parse_poly("x0*x1", 3, QQ)),
}

# The classes compared by identity, one instance each.
FROZEN = {
    "Instance": lambda: RingConfig().build(),
    "OrbitWindow": lambda: orbit_points(AutoMap.diagonal_family([2, 3], QQ), ProjPoint((1, 1, 1)), 2),
    "IndependenceCertificate": lambda: multiplicative_independence([2, 3]),
    "CheckRecord": lambda: CheckRecord("x", PASS, "statement"),
    "VerificationReport": lambda: VerificationReport({}, ()),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_compare_by_class_and_key(name):
    make, other = VALUES[name]
    a, b = make(), make()
    assert type(a).__name__ == name and isinstance(a, Value)
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert hash(a) == hash(a._key())
    if other is not None:
        assert a != other and not a == other
    # a subclass instance with the same key is another class: unequal
    twin = object.__new__(type("Twin", (type(a),), {}))
    twin.__dict__.update(a.__dict__)
    assert twin._key() == a._key() and a != twin and twin != a
    assert a != a._key()


@pytest.mark.parametrize("name", sorted(VALUES) + sorted(FROZEN))
def test_values_are_immutable(name):
    value = VALUES[name][0]() if name in VALUES else FROZEN[name]()
    assert type(value).__name__ == name
    before = dict(value.__dict__)
    for field in list(before)[:1] + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value.__dict__ == before


def test_cached_properties_cache_on_frozen_values():
    U = span([[(0, 2), (2, 4)]], poly_ambient(3, 1), QQ)
    assert U.quotient_map is U.quotient_map and "quotient_map" in U.__dict__
    A = AutoMap.diagonal_family([2, Fraction(1, 3)], QQ)
    assert A.den == 3 and "den" in A.__dict__ and A.den is A.__dict__["den"]


def test_config_changes_build_the_configs_they_did():
    half = (Fraction(1, 2), Fraction(5))
    cfg = RingConfig().updated({"automorphism": {"diag": "1/2,5"}, "maxDegree": 7, "field": " prime:7 "})
    assert cfg == RingConfig(2, half, None, (1, 1, 1), " prime:7 ", 7, None)
    assert cfg.validate() == RingConfig(multipliers=half, field="prime:7", max_degree=7, trailing_zeros=3)
    instance = RingConfig(field="prime:10007").build()
    twin = suite._Context(instance).twin
    q = suite.second_prime(instance)
    assert twin.config == RingConfig(field="prime:%d" % q, trailing_zeros=3)
    assert twin.field == PrimeField(q) and instance.config.field == "prime:10007"


def test_every_public_name_resolves():
    for name in idealizer.__all__:
        assert name in dir(idealizer)
        value = getattr(idealizer, name)
        if name != "__version__":
            source = import_module("idealizer." + idealizer._SOURCES[name])
            assert value is getattr(source, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        idealizer.no_such_name
