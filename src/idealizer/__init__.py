"""Exact degreewise computations with idealizers in twisted polynomial rings.

The package builds the graded ring S obtained from a commutative polynomial
ring by twisting multiplication along a graded automorphism, carves out the
idealizer subring of a point ideal, and verifies finite slices of its
structure: Hilbert functions, generator degrees, Veronese behaviour, noetherian
probes, ext tables, Segre witnesses, and multiplicative-independence
certificates.  Everything runs over exact fields (rationals or a prime field),
so every reported dimension is exact over the chosen finite window.
"""

from .automorphism import AutoMap, ProjPoint
from .config import ConfigError, Instance, RingConfig
from .ext import ExtEngine, KoszulComplex
from .fields import QQ, PrimeField, RationalField, field_from_name
from .idealizer_ring import IdealizerRing
from .orbit import (
    FactorBoundError,
    distinct_window,
    general_position_rank,
    multiplicative_independence,
    orbit_points,
)
from .segre import SegreContext, local_witness_check
from .suite import run_suite
from .twist import GradedIdeal, PointIdeal, TwistRing, point_ideal_forms

__version__ = "0.1.0"

__all__ = [
    "AutoMap",
    "ConfigError",
    "ExtEngine",
    "FactorBoundError",
    "GradedIdeal",
    "IdealizerRing",
    "Instance",
    "KoszulComplex",
    "PointIdeal",
    "PrimeField",
    "ProjPoint",
    "QQ",
    "RationalField",
    "RingConfig",
    "SegreContext",
    "TwistRing",
    "distinct_window",
    "field_from_name",
    "general_position_rank",
    "local_witness_check",
    "multiplicative_independence",
    "orbit_points",
    "point_ideal_forms",
    "run_suite",
    "__version__",
]
