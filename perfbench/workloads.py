"""The benchmark's workloads, their seeded inputs, and expected outputs.

Every workload is one ``verify-suite`` configuration with diagonal
multipliers and (by default) ``trailing_zeros`` 3; the seed only chooses
the base point.  Coordinate 0 is 1 and the others are nonzero integers in [-9, 9]
(seed 0 gives (1 : ... : 1)).  Zero coordinates would push the instance
into the residual regime, and every nonzero point is carried to
(1 : ... : 1) by a diagonal scaling that commutes with the automorphism,
so all seeds share one set of dimensions: the report with its
point-dependent strings removed (see ``invariant_payload``) hashes to the
same ``invariant_sha256`` for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    multipliers: tuple[int, ...]
    max_degree: int
    field: str
    expected_counts: dict
    seed0_sha256: str | None
    invariant_sha256: str | None
    why: str
    trailing_zeros: int = 3

    def point(self, seed: int) -> list[int]:
        if seed == 0:
            return [1] * (self.d + 1)
        rng = random.Random(seed)
        nonzero = [v for v in range(-9, 10) if v]
        return [1] + [rng.choice(nonzero) for _ in range(self.d)]

    def config(self, seed: int) -> dict:
        """The ``RingConfig.from_mapping`` input for this seed."""
        return {
            "d": self.d,
            "automorphism": {"diag": [str(p) for p in self.multipliers]},
            "point": [str(c) for c in self.point(seed)],
            "field": self.field,
            "max_degree": self.max_degree,
            "trailing_zeros": self.trailing_zeros,
        }

    def expected_sha256(self, seed: int) -> str | None:
        return self.seed0_sha256 if seed == 0 else None


_GENERIC_COUNTS = {"pass": 14, "observed": 7, "skipped": 1, "fail": 0}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ref-q",
            d=2,
            multipliers=(2, 3),
            max_degree=10,
            field="rational",
            expected_counts=_GENERIC_COUNTS,
            seed0_sha256="02faf3d557a796e1429f8d3c0d6ee1150fcd33e0598c177d79c217a9d37267cd",
            invariant_sha256="392ff5d464d177952568ea4d1b75544ae2110f54c8dc16c2e4bc45b031e87e39",
            why="the paper's reference instance over Q; fraction-free echelon "
            "insert leads, then generator and IS pieces",
        ),
        Workload(
            name="deep-gf",
            d=2,
            multipliers=(2, 3),
            max_degree=14,
            field="prime:10007",
            expected_counts={"pass": 14, "observed": 8, "skipped": 0, "fail": 0},
            seed0_sha256="77419fbcad03a05c784882305d6cf408f61bb04f7b92cffb0b3e842a219aa21b",
            invariant_sha256="83d89392dc59e7c383e738262cb8a895de991c0f9e36e5687f0825e3a7fa339b",
            why="the same algorithms mod p with the second-prime cross-check; "
            "a Q-only change must leave it unchanged",
        ),
        Workload(
            name="wide-q",
            d=3,
            multipliers=(2, 3, 5),
            max_degree=5,
            field="rational",
            expected_counts=_GENERIC_COUNTS,
            seed0_sha256="8c280daae73b8dbf364d728061373bbe0e03cce34c671138c546b8c126c39200",
            invariant_sha256="fc1790a7f76e7da69a5c08fe0b63d1dc7fc139068d8221f472042282f43a3630",
            why="four variables over Q: the Veronese constraint route and "
            "Koszul complexes lead, generator and IS pieces fall below 1%",
        ),
    )
}


def invariant_payload(payload: dict) -> dict:
    """The report without the strings that name the seeded point."""
    out = json.loads(json.dumps(payload))
    out["config"].pop("point", None)
    for check in out["checks"]:
        data = check["data"]
        data.pop("off_orbit_point", None)
        if check["name"] == "right-noetherian-probes":
            for probe in data.get("probes", []):
                probe.pop("f", None)
        if check["name"] == "prime-mode-crosscheck":
            data.pop("primes", None)
    return out


def invariant_sha256(payload: dict) -> str:
    text = json.dumps(invariant_payload(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def linear_form_at(text: str, point: list[int], modulus: int) -> Fraction:
    """Value of a rendered linear form such as ``3*x0 - 2/5*x1 + x2`` at a point.

    Reduced mod ``modulus`` when it is nonzero (coefficients are then
    integers).  Raises ValueError on any term that is not ``[c*]x<i>``.
    """
    total = Fraction(0)
    for token in text.replace(" - ", " + -").split(" + "):
        token = token.strip()
        sign = 1
        if token.startswith("-"):
            sign, token = -1, token[1:]
        coeff, _, var = token.rpartition("*")
        if not var.startswith("x") or not var[1:].isdigit():
            raise ValueError("not a linear term: %r" % token)
        total += sign * Fraction(coeff or 1) * point[int(var[1:])]
    return total % modulus if modulus else total
