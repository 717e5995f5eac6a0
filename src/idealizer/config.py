"""Run configuration: one reader for config files and flags, flags winning.

A configuration pins the instance (d, automorphism, point, field) and the
two window parameters every observed claim must carry: the degree cap N
and the trailing-zero count, which defaults to min(3, N) when unset.
``RingConfig.updated`` is the one reader: a config file's object and the
command line's flags, spelled as the file's keys, are applied through it
in turn.  It checks only structure (keys, the automorphism's shape,
fraction lists); every type and range check is in ``validate``, and a
JSON boolean is never a number.  Failures raise ConfigError, which the
command line maps to the usage exit code.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .automorphism import AutoMap, ProjPoint
from .fields import Frozen, Value, field_from_name
from .idealizer_ring import IdealizerRing
from .twist import TwistRing

__all__ = ["ConfigError", "Instance", "RingConfig"]


class ConfigError(ValueError):
    pass


# the plain keys of a config file, each with the field it sets
_KEYS = {
    "d": "d",
    "field": "field",
    "max_degree": "max_degree",
    "maxDegree": "max_degree",
    "trailing_zeros": "trailing_zeros",
    "trailingZeros": "trailing_zeros",
}


def _integer(value) -> bool:
    """An int that is not a bool: JSON's true and false are no numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _fraction(value, what: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value.strip())
        if _integer(value) or isinstance(value, Fraction):
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


class RingConfig(Value):
    def __init__(
        self,
        d: int = 2,
        multipliers: tuple[Fraction, ...] | None = (Fraction(2), Fraction(3)),
        matrix: tuple[tuple[Fraction, ...], ...] | None = None,
        point: tuple[Fraction, ...] = (Fraction(1), Fraction(1), Fraction(1)),
        field: str = "rational",
        max_degree: int = 10,
        trailing_zeros: int | None = None,  # unset: validate() fills in min(3, max_degree)
    ):
        self.__dict__.update(
            d=d,
            multipliers=multipliers,
            matrix=matrix,
            point=point,
            field=field,
            max_degree=max_degree,
            trailing_zeros=trailing_zeros,
        )

    # __dict__ holds the seven fields, in order, and nothing else
    def _key(self) -> tuple:
        return tuple(self.__dict__.values())

    def _replace(self, **changes) -> "RingConfig":
        """This config with the named fields changed."""
        return RingConfig(**{**self.__dict__, **changes})

    def validate(self) -> "RingConfig":
        """The checked config, its field name stripped and its
        trailing_zeros filled in; raises ConfigError on bad values."""
        if not _integer(self.d) or self.d < 2:
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
        if not isinstance(self.field, str):
            raise ConfigError("field must be a string")
        field = self.field.strip()
        try:
            field_from_name(field)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not _integer(self.max_degree) or self.max_degree < 1:
            raise ConfigError("max degree must be a positive integer")
        trailing = self.trailing_zeros
        if trailing is None:
            trailing = min(3, self.max_degree)
        if not _integer(trailing) or not 1 <= trailing <= self.max_degree:
            raise ConfigError("trailing zeros must lie between 1 and the max degree")
        return self._replace(field=field, trailing_zeros=trailing)

    # -- construction ---------------------------------------------------------

    def updated(self, data) -> "RingConfig":
        """This config with the keys of ``data``, spelled as in a config
        file, applied over it.  Only the structure is checked here; the
        values are checked by ``validate``."""
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(data) - set(_KEYS) - {"automorphism", "point"})
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        changes = {}
        for key, name in _KEYS.items():
            if key in data:
                if name in changes:
                    raise ConfigError(
                        "%s is given twice, as %s and %s"
                        % (name.replace("_", " "), name, key)
                    )
                changes[name] = data[key]
        auto = data.get("automorphism")
        if auto is not None:
            if not isinstance(auto, dict) or len(auto) != 1:
                raise ConfigError("automorphism must be {'diag': [...]} or {'matrix': [...]}")
            if "diag" in auto:
                changes.update(
                    multipliers=_fraction_list(auto["diag"], "multiplier"), matrix=None
                )
            elif "matrix" in auto:
                rows = auto["matrix"]
                if not isinstance(rows, list):
                    raise ConfigError("matrix must be a list of rows")
                changes.update(
                    multipliers=None,
                    matrix=tuple(_fraction_list(r, "matrix entry") for r in rows),
                )
            else:
                raise ConfigError("automorphism must be {'diag': [...]} or {'matrix': [...]}")
        if "point" in data:
            changes["point"] = _fraction_list(data["point"], "coordinate")
        return self._replace(**changes)

    @staticmethod
    def from_mapping(data) -> "RingConfig":
        return RingConfig().updated(data)

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
        cfg = self.validate()
        field = field_from_name(cfg.field)

        def lift(x: Fraction):
            try:
                return field.from_fraction(x)
            except ZeroDivisionError as exc:
                raise ConfigError(
                    "value %s is not defined in %s" % (x, field.name)
                ) from exc

        try:
            if cfg.multipliers is not None:
                mults = [lift(p) for p in cfg.multipliers]
                if any(not bool(m) for m in mults):
                    raise ConfigError("a multiplier vanishes in %s" % field.name)
                phi = AutoMap.diagonal_family(mults, field)
            else:
                rows = [[lift(v) for v in row] for row in cfg.matrix]
                phi = AutoMap.from_matrix(rows, field)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        coords = [lift(c) for c in cfg.point]
        if all(not bool(c) for c in coords):
            raise ConfigError("point reduces to zero in %s" % field.name)
        point = ProjPoint.make(coords, field)
        ring = TwistRing(cfg.d, phi, field)
        return Instance(cfg, field, ring, point, IdealizerRing(ring, point))


class Instance(Frozen):
    def __init__(self, config: RingConfig, field, ring: TwistRing, point: ProjPoint, idealizer):
        self.__dict__.update(
            config=config, field=field, ring=ring, point=point, idealizer=idealizer
        )

    @property
    def rational(self) -> bool:
        return self.field.char == 0
