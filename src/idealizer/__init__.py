"""Exact degreewise computations with idealizers in twisted polynomial rings.

The package builds the graded ring S obtained from a commutative polynomial
ring by twisting multiplication along a graded automorphism, carves out the
idealizer subring of a point ideal, and verifies finite slices of its
structure: Hilbert functions, generator degrees, Veronese behaviour, noetherian
probes, ext tables, Segre witnesses, and multiplicative-independence
certificates.  Everything runs over exact fields (rationals or a prime field),
so every reported dimension is exact over the chosen finite window.

The names below are resolved on first access (PEP 562), so importing one
submodule, ``idealizer.config`` say, does not import the suite, the Ext
engine, the Segre witness or the report writer with it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCES = {
    "AutoMap": "automorphism",
    "ProjPoint": "automorphism",
    "ConfigError": "config",
    "Instance": "config",
    "RingConfig": "config",
    "ExtEngine": "ext",
    "KoszulComplex": "ext",
    "QQ": "fields",
    "PrimeField": "fields",
    "RationalField": "fields",
    "field_from_name": "fields",
    "IdealizerRing": "idealizer_ring",
    "FactorBoundError": "orbit",
    "distinct_window": "orbit",
    "general_position_rank": "orbit",
    "multiplicative_independence": "orbit",
    "orbit_points": "orbit",
    "SegreContext": "segre",
    "local_witness_check": "segre",
    "run_suite": "suite",
    "GradedIdeal": "twist",
    "PointIdeal": "twist",
    "TwistRing": "twist",
    "point_ideal_forms": "twist",
}

__all__ = [*sorted(_SOURCES), "__version__"]


def __getattr__(name: str):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + source, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_SOURCES))
