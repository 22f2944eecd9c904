"""Parsing and canonical serialization of text model specifications.

A spec is a single JSON document describing either a canonical pair

    {"b": 0.5, "mu": [{"weight": 1.0, "family": "frechet", "alpha": 0.5}]}

or a drift/jump-measure alternative

    {"levy": {"b_L": 0.0, "atoms": [[0.6931471805599453, 2.0]]}}

optionally followed by analytic transforms applied left to right:

    {"b": 1.0, "transform": [{"kind": "stable", "alpha": 0.5}]}

Family fragments: dirac1, frechet(alpha), two_point(theta),
unit_exponential, discrete(atoms), tilted(base, z).  Numbers are plain JSON
decimals (Infinity is accepted for killing atoms of a levy spec).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import SpecError
from .families import (
    Dirac1,
    Discrete,
    Frechet,
    Tilted,
    TwoPoint,
    UnitExponential,
    UnitMeanCdf,
    tilt,
)
from .models import CanonicalModel, IdtTriplet, LevySpec, MixingMeasure
from .stdf import _as_evaluator, inclusion_exclusion_evaluator, stable_evaluator

__all__ = ["ModelSpec", "parse_model", "parse_triplet", "dump_model",
           "dump_triplet", "parse_family", "dump_family"]


def _require_number(obj, field, lo=None, hi=None, allow_inf=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SpecError(f"field {field!r} must be a number")
    value = float(obj)
    if not allow_inf and not math.isfinite(value):
        raise SpecError(f"field {field!r} must be finite")
    if lo is not None and value < lo or hi is not None and value > hi:
        raise SpecError(f"field {field!r} out of range")
    return value


def parse_family(obj, field: str = "family") -> UnitMeanCdf:
    if not isinstance(obj, dict):
        raise SpecError(f"field {field!r} must be an object")
    name = obj.get("family")
    try:
        if name == "dirac1":
            return Dirac1()
        if name == "frechet":
            return Frechet(_require_number(obj.get("alpha"), f"{field}.alpha"))
        if name == "two_point":
            return TwoPoint(_require_number(obj.get("theta"), f"{field}.theta"))
        if name == "unit_exponential":
            return UnitExponential()
        if name == "discrete":
            atoms = obj.get("atoms")
            if not isinstance(atoms, list) or not atoms:
                raise SpecError(f"field {field!r}.atoms must be a non-empty list")
            pairs = []
            for i, entry in enumerate(atoms):
                if not isinstance(entry, list) or len(entry) != 2:
                    raise SpecError(f"field {field!r}.atoms[{i}] must be [value, weight]")
                pairs.append((
                    _require_number(entry[0], f"{field}.atoms[{i}][0]"),
                    _require_number(entry[1], f"{field}.atoms[{i}][1]"),
                ))
            return Discrete(pairs)
        if name == "tilted":
            base = parse_family(obj.get("base"), f"{field}.base")
            return tilt(base, _require_number(obj.get("z"), f"{field}.z"))
    except ValueError as exc:
        raise SpecError(f"field {field!r}: {exc}") from exc
    raise SpecError(f"field {field!r}: unknown family {name!r}")


def dump_family(F: UnitMeanCdf) -> dict:
    if isinstance(F, Dirac1):
        return {"family": "dirac1"}
    if isinstance(F, Frechet):
        return {"family": "frechet", "alpha": F.alpha}
    if isinstance(F, TwoPoint):
        return {"family": "two_point", "theta": F.theta}
    if isinstance(F, UnitExponential):
        return {"family": "unit_exponential"}
    if isinstance(F, Discrete):
        atoms = [[float(v), float(w)] for v, w in zip(F.values, F.weights)]
        return {"family": "discrete", "atoms": atoms}
    if isinstance(F, Tilted):
        return {"family": "tilted", "base": dump_family(F.base), "z": F.z}
    raise SpecError(f"family {type(F).__name__} has no spec representation")


def _parse_mixture(items, field: str) -> MixingMeasure:
    if not isinstance(items, list) or not items:
        raise SpecError(f"field {field!r} must be a non-empty list")
    components = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise SpecError(f"field {field}[{i}] must be an object")
        weight = _require_number(item.get("weight", 1.0), f"{field}[{i}].weight")
        components.append((weight, parse_family(item, f"{field}[{i}]")))
    try:
        return MixingMeasure(components)
    except ValueError as exc:
        raise SpecError(f"field {field!r}: {exc}") from exc


def _parse_levy(obj) -> LevySpec:
    if not isinstance(obj, dict):
        raise SpecError("field 'levy' must be an object")
    drift = _require_number(obj.get("b_L", 0.0), "levy.b_L", lo=0.0)
    atoms = obj.get("atoms", [])
    if not isinstance(atoms, list):
        raise SpecError("field 'levy.atoms' must be a list")
    pairs = []
    for i, entry in enumerate(atoms):
        if not isinstance(entry, list) or len(entry) != 2:
            raise SpecError(f"field 'levy.atoms[{i}]' must be [theta, beta]")
        pairs.append((
            _require_number(entry[0], f"levy.atoms[{i}][0]", allow_inf=True),
            _require_number(entry[1], f"levy.atoms[{i}][1]"),
        ))
    try:
        return LevySpec(drift, pairs)
    except ValueError as exc:
        raise SpecError(f"field 'levy': {exc}") from exc


def _parse_transforms(obj) -> tuple[dict, ...]:
    if obj is None:
        return ()
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise SpecError("field 'transform' must be an object or a list")
    out = []
    for i, item in enumerate(obj):
        if not isinstance(item, dict):
            raise SpecError(f"field 'transform[{i}]' must be an object")
        kind = item.get("kind")
        if kind == "stable":
            alpha = _require_number(item.get("alpha"), f"transform[{i}].alpha")
            if not 0.0 < alpha < 1.0:
                raise SpecError(f"field 'transform[{i}].alpha' must lie in (0, 1)")
            out.append({"kind": "stable", "alpha": alpha})
        elif kind == "inclusion_exclusion":
            out.append({"kind": "inclusion_exclusion"})
        else:
            raise SpecError(f"field 'transform[{i}].kind' unknown: {kind!r}")
    return tuple(out)


@dataclass(frozen=True)
class ModelSpec:
    """Parsed model: exactly one of a canonical pair or a levy spec, plus
    zero or more analytic transforms."""

    canonical: CanonicalModel | None
    levy: LevySpec | None
    transforms: tuple[dict, ...] = ()

    def evaluator(self):
        """Stable tail dependence evaluator with transforms applied."""
        ev = _as_evaluator(self.canonical if self.canonical is not None else self.levy)
        for tr in self.transforms:
            if tr["kind"] == "stable":
                ev = stable_evaluator(ev, tr["alpha"])
            else:
                ev = inclusion_exclusion_evaluator(ev)
        return ev

    def require_canonical(self) -> CanonicalModel:
        """The canonical pair for sampling; transforms are not samplable."""
        if self.transforms:
            raise SpecError("field 'transform': transformed models cannot be sampled")
        if self.canonical is not None:
            return self.canonical
        try:
            return self.levy.to_canonical()
        except ValueError as exc:
            raise SpecError(f"field 'levy': {exc}") from exc


def parse_model(text: str) -> ModelSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    known = {"b", "mu", "levy", "transform"}
    for key in obj:
        if key not in known:
            raise SpecError(f"field {key!r} is not recognized")
    transforms = _parse_transforms(obj.get("transform"))
    has_b = "b" in obj
    has_levy = "levy" in obj
    if has_b == has_levy:
        raise SpecError("spec must provide exactly one of field 'b' or field 'levy'")
    if has_levy:
        if "mu" in obj:
            raise SpecError("field 'mu' conflicts with field 'levy'")
        return ModelSpec(None, _parse_levy(obj["levy"]), transforms)
    b = _require_number(obj["b"], "b", lo=0.0, hi=1.0)
    mu = _parse_mixture(obj["mu"], "mu") if "mu" in obj else None
    try:
        return ModelSpec(CanonicalModel(b, mu), None, transforms)
    except ValueError as exc:
        raise SpecError(f"field 'b': {exc}") from exc


def parse_triplet(text: str) -> IdtTriplet:
    """Parse the {b, c, mu} triplet form used by the path command."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    for key in obj:
        if key not in {"b", "c", "mu"}:
            raise SpecError(f"field {key!r} is not recognized in a triplet spec")
    if "b" not in obj or "c" not in obj:
        raise SpecError("triplet spec requires fields 'b' and 'c'")
    b = _require_number(obj["b"], "b", lo=0.0)
    c = _require_number(obj["c"], "c", lo=0.0)
    mu = _parse_mixture(obj["mu"], "mu") if "mu" in obj else None
    try:
        return IdtTriplet(b, c, mu)
    except ValueError as exc:
        raise SpecError(f"field 'c': {exc}") from exc


def dump_triplet(triplet: IdtTriplet) -> str:
    """Canonical JSON rendering of a {b, c, mu} triplet spec."""
    out: dict = {"b": triplet.b, "c": triplet.c}
    if triplet.mu is not None:
        out["mu"] = [{"weight": float(w), **dump_family(F)} for w, F in triplet.mu]
    return json.dumps(out)


def dump_model(spec: ModelSpec) -> str:
    """Canonical JSON rendering; re-parses to an identical model."""
    out: dict = {}
    if spec.canonical is not None:
        out["b"] = spec.canonical.b
        if spec.canonical.mu is not None:
            out["mu"] = [
                {"weight": float(w), **dump_family(F)} for w, F in spec.canonical.mu
            ]
    else:
        out["levy"] = {
            "b_L": spec.levy.drift,
            "atoms": [[theta, rate] for theta, rate in spec.levy.atoms],
        }
    if spec.transforms:
        out["transform"] = [dict(tr) for tr in spec.transforms]
    return json.dumps(out)
