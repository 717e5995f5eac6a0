"""Run configuration: JSON file plus flag overrides, flags winning.

A configuration pins the instance (d, automorphism, point, field) and the
two window parameters every observed claim must carry: the degree cap N
and the trailing-zero count, which defaults to min(3, N) when unset.
Validation failures raise ConfigError, which the command line maps to the
usage exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

from .automorphism import AutoMap, ProjPoint
from .fields import field_from_name
from .idealizer_ring import IdealizerRing
from .twist import TwistRing

__all__ = ["ConfigError", "Instance", "RingConfig"]


class ConfigError(ValueError):
    pass


def _fraction(value, what: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value.strip())
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("bad %s: %r" % (what, value)) from exc
    raise ConfigError("bad %s: %r" % (what, value))


def _fraction_list(values, what: str) -> tuple[Fraction, ...]:
    if isinstance(values, str):
        values = [v for v in values.split(",") if v.strip()]
    if not isinstance(values, (list, tuple)):
        raise ConfigError("%s must be a list" % what)
    return tuple(_fraction(v, what) for v in values)


@dataclass(frozen=True)
class RingConfig:
    d: int = 2
    multipliers: tuple[Fraction, ...] | None = (Fraction(2), Fraction(3))
    matrix: tuple[tuple[Fraction, ...], ...] | None = None
    point: tuple[Fraction, ...] = (Fraction(1), Fraction(1), Fraction(1))
    field: str = "rational"
    max_degree: int = 10
    trailing_zeros: int | None = None  # unset: validate() fills in min(3, max_degree)

    def validate(self) -> "RingConfig":
        if not isinstance(self.d, int) or self.d < 2:
            raise ConfigError("d must be an integer >= 2")
        if (self.multipliers is None) == (self.matrix is None):
            raise ConfigError("exactly one of diag multipliers or a matrix is required")
        if self.multipliers is not None:
            if len(self.multipliers) != self.d:
                raise ConfigError("expected %d multipliers" % self.d)
            if any(p == 0 for p in self.multipliers):
                raise ConfigError("multipliers must be nonzero")
        if self.matrix is not None:
            n = self.d + 1
            if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
                raise ConfigError("matrix must be %d x %d" % (n, n))
        if len(self.point) != self.d + 1:
            raise ConfigError("point needs %d coordinates" % (self.d + 1))
        if all(c == 0 for c in self.point):
            raise ConfigError("point coordinates must not all vanish")
        try:
            field_from_name(self.field)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(self.max_degree, int) or self.max_degree < 1:
            raise ConfigError("max degree must be a positive integer")
        if self.trailing_zeros is None:
            return replace(self, trailing_zeros=min(3, self.max_degree)).validate()
        if not isinstance(self.trailing_zeros, int) or not (
            1 <= self.trailing_zeros <= self.max_degree
        ):
            raise ConfigError("trailing zeros must lie between 1 and the max degree")
        return self

    # -- construction ---------------------------------------------------------

    @staticmethod
    def from_mapping(data) -> "RingConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {
            "d",
            "automorphism",
            "point",
            "field",
            "max_degree",
            "maxDegree",
            "trailing_zeros",
            "trailingZeros",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        cfg = RingConfig()
        if "d" in data:
            if not isinstance(data["d"], int):
                raise ConfigError("d must be an integer")
            cfg = replace(cfg, d=data["d"])
        auto = data.get("automorphism")
        if auto is not None:
            if not isinstance(auto, dict) or len(auto) != 1:
                raise ConfigError("automorphism must be {'diag': [...]} or {'matrix': [...]}")
            if "diag" in auto:
                cfg = replace(
                    cfg,
                    multipliers=_fraction_list(auto["diag"], "multiplier"),
                    matrix=None,
                )
            elif "matrix" in auto:
                rows = auto["matrix"]
                if not isinstance(rows, list):
                    raise ConfigError("matrix must be a list of rows")
                cfg = replace(
                    cfg,
                    multipliers=None,
                    matrix=tuple(_fraction_list(r, "matrix entry") for r in rows),
                )
            else:
                raise ConfigError("automorphism must be {'diag': [...]} or {'matrix': [...]}")
        if "point" in data:
            cfg = replace(cfg, point=_fraction_list(data["point"], "coordinate"))
        if "field" in data:
            if not isinstance(data["field"], str):
                raise ConfigError("field must be a string")
            cfg = replace(cfg, field=data["field"].strip())
        for key, alias, what in (
            ("max_degree", "maxDegree", "max degree"),
            ("trailing_zeros", "trailingZeros", "trailing zeros"),
        ):
            given = [k for k in (key, alias) if k in data]
            if len(given) == 2:
                raise ConfigError("%s is given twice, as %s and %s" % (what, key, alias))
            if given:
                if not isinstance(data[given[0]], int):
                    raise ConfigError("%s must be an integer" % what)
                cfg = replace(cfg, **{key: data[given[0]]})
        return cfg

    @staticmethod
    def from_file(path: str) -> "RingConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError("cannot read config file: %s" % exc) from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config file is not valid JSON: %s" % exc) from exc
        return RingConfig.from_mapping(data)

    def with_flags(
        self,
        d=None,
        p=None,
        point=None,
        field=None,
        max_degree=None,
        trailing_zeros=None,
    ) -> "RingConfig":
        cfg = self
        if d is not None:
            cfg = replace(cfg, d=d)
        if p is not None:
            cfg = replace(cfg, multipliers=_fraction_list(p, "multiplier"), matrix=None)
        if point is not None:
            cfg = replace(cfg, point=_fraction_list(point, "coordinate"))
        if field is not None:
            cfg = replace(cfg, field=field.strip())
        if max_degree is not None:
            cfg = replace(cfg, max_degree=max_degree)
        if trailing_zeros is not None:
            cfg = replace(cfg, trailing_zeros=trailing_zeros)
        return cfg

    # -- canonical echo ----------------------------------------------------------

    def payload(self) -> dict:
        auto = (
            {"diag": [str(p) for p in self.multipliers]}
            if self.multipliers is not None
            else {"matrix": [[str(v) for v in row] for row in self.matrix]}
        )
        return {
            "d": self.d,
            "automorphism": auto,
            "point": [str(c) for c in self.point],
            "field": self.field,
            "max_degree": self.max_degree,
            "trailing_zeros": self.trailing_zeros,
        }

    def canonical_text(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))

    # -- realisation ---------------------------------------------------------------

    def build(self) -> "Instance":
        if self.trailing_zeros is None:
            return self.validate().build()
        self.validate()
        field = field_from_name(self.field)

        def lift(x: Fraction):
            try:
                return field.from_fraction(x)
            except ZeroDivisionError as exc:
                raise ConfigError(
                    "value %s is not defined in %s" % (x, field.name)
                ) from exc

        try:
            if self.multipliers is not None:
                mults = [lift(p) for p in self.multipliers]
                if any(not bool(m) for m in mults):
                    raise ConfigError("a multiplier vanishes in %s" % field.name)
                phi = AutoMap.diagonal_family(mults, field)
            else:
                rows = [[lift(v) for v in row] for row in self.matrix]
                phi = AutoMap.from_matrix(rows, field)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        coords = [lift(c) for c in self.point]
        if all(not bool(c) for c in coords):
            raise ConfigError("point reduces to zero in %s" % field.name)
        point = ProjPoint.make(coords, field)
        ring = TwistRing(self.d, phi, field)
        return Instance(self, field, ring, point, IdealizerRing(ring, point))


@dataclass(frozen=True)
class Instance:
    config: RingConfig
    field: object
    ring: TwistRing
    point: ProjPoint
    idealizer: IdealizerRing

    @property
    def rational(self) -> bool:
        return self.field.char == 0
