"""YAML experiment configs: load, validate, canonicalize, hash, build.

A config fully determines an experiment: the base system with its
invariant measure, the cocycle, an optional perturbation family (a
direction field and a schedule of sizes), sampling budgets, epsilon, and
the seed.  Normalization fills every default and coerces every number, so
two configs that mean the same experiment serialize to the same canonical
text and share one hash.

Each section has one reader, which in one pass checks the keys of the
section's own kind, returns the canonical data and builds the object; a
key that only another kind takes is refused, not dropped.  The ``Config``
keeps the objects its readers built next to the canonical data, so a
config is read and built once; the builders hand those objects back.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import yaml

from .base import (
    BaseSystem,
    BernoulliMeasure,
    LebesgueMeasure,
    MarkovMeasure,
    ShiftSystem,
    TorusSystem,
)
from .cocycle import (
    CocycleSpec,
    ConstantCocycle,
    ConstantFactor,
    DiagonalFactor,
    LocallyConstantCocycle,
    PointwiseCocycle,
    PointwiseEntriesField,
    RotationFactor,
    TrigExpr,
)
from .continuity import PerturbationFamily
from .errors import ConfigError, SingularValueError

_TRIG_KEYS = ("const", "lin_u", "lin_v", "sin_u", "cos_u", "sin_v", "cos_v")
_ENTRIES = ("e00", "e01", "e10", "e11")
_BUDGETS = {"samples": 1000, "depth": 40, "n_max": 400}  # with their defaults
# the kinds cocycles and direction fields share, with their keys; a
# cocycle's also take its Holder exponent r
_MATRIX_KINDS = {"constant": {"matrix"}, "locally_constant": {"table", "depth"}}


@dataclass(frozen=True, eq=False)
class Config:
    """A normalized experiment description: ``data`` is plain nested
    dict/list/scalar material, safe to serialize; the other fields are the
    objects built from it, ``family`` None without a perturbation."""

    data: dict
    system: BaseSystem
    cocycle: CocycleSpec
    family: PerturbationFamily | None

    @property
    def seed(self) -> int:
        return self.data["seed"]

    @property
    def epsilon(self) -> float:
        return self.data["epsilon"]

    @property
    def output_dir(self) -> str:
        return self.data["output_dir"]

    @property
    def samples(self) -> int:
        return self.data["budgets"]["samples"]

    @property
    def depth(self) -> int:
        return self.data["budgets"]["depth"]

    @property
    def n_max(self) -> int:
        return self.data["budgets"]["n_max"]


# libyaml's parser where PyYAML was built with it, else the pure-Python one:
# both build the same safe types, and only a malformed file's message differs
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_LOADER)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path!r}: {err.strerror}") from err
    except (yaml.YAMLError, UnicodeDecodeError) as err:
        raise ConfigError(f"config file {path!r} is not valid YAML: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a mapping")
    return normalize_config(data)


def normalize_config(data: dict) -> Config:
    _expect_keys(
        data,
        required={"base", "cocycle"},
        optional={"perturbation", "budgets", "epsilon", "seed", "output_dir"},
        where="config",
    )
    base, system = _read_base(data["base"])
    cocycle, spec = _read_cocycle(data["cocycle"], base)
    out = {
        "base": base,
        "cocycle": cocycle,
        "budgets": _norm_budgets(data.get("budgets") or {}),
        "epsilon": _number(data.get("epsilon", 0.1), "epsilon"),
        "seed": _seed(data.get("seed", 0), "seed"),
        "output_dir": _text(data.get("output_dir", "out"), "output_dir"),
    }
    if out["epsilon"] <= 0.0:
        raise ConfigError("epsilon must be positive")
    family = None
    if data.get("perturbation") is not None:
        out["perturbation"], family = _read_perturbation(data["perturbation"], base, spec)
    return Config(data=out, system=system, cocycle=spec, family=family)


def dump_config(cfg: Config) -> str:
    """Canonical YAML text; equal configs produce equal text."""
    return yaml.safe_dump(cfg.data, sort_keys=True, default_flow_style=False)


def config_hash(cfg: Config) -> str:
    """sha256 of the canonical serialization."""
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# builders: the objects the readers built while the config was read


def build_system(cfg: Config) -> BaseSystem:
    return cfg.system


def build_cocycle(cfg: Config) -> CocycleSpec:
    return cfg.cocycle


def build_family(cfg: Config) -> PerturbationFamily:
    """The config's perturbation family around its cocycle."""
    if cfg.family is None:
        raise ConfigError("config has no perturbation section")
    return cfg.family


# ---------------------------------------------------------------------------
# section readers: check the keys of the section's own kind, return the
# canonical data and build the object, in one pass


def _expect_keys(d, required: set, optional: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a mapping")
    missing = required - d.keys()
    if missing:
        raise ConfigError(f"{where} is missing {sorted(missing)}")
    unknown = d.keys() - required - optional
    if unknown:
        raise ConfigError(f"{where} has unknown keys {sorted(unknown)}")


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{where} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer past the float range
        x = np.inf
    # NaN passes every range check, so non-finite values stop here
    if not np.isfinite(x):
        raise ConfigError(f"{where} must be finite, got {v!r}")
    return x


def _integer(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    return int(v)


def _seed(v, where: str) -> int:
    """A seed: numpy's SeedSequence takes nonnegative integers only."""
    seed = _integer(v, where)
    if seed < 0:
        raise ConfigError(f"{where} must be nonnegative, got {seed}")
    return seed


def _text(v, where: str) -> str:
    if not isinstance(v, str) or not v:
        raise ConfigError(f"{where} must be a nonempty string")
    return v


def _np(rows):
    return np.asarray(rows, dtype=float)


def _float_matrix(rows, where: str, shape: tuple[int, int] | None = (2, 2)) -> list:
    if not isinstance(rows, list) or (shape and len(rows) != shape[0]):
        raise ConfigError(f"{where} must be a {shape} matrix")
    out = []
    for row in rows:
        if not isinstance(row, list) or (shape and len(row) != shape[1]):
            raise ConfigError(f"{where} must be a {shape} matrix")
        out.append([_number(x, where) for x in row])
    return out


def _int_matrix(rows, where: str) -> list:
    m = _float_matrix(rows, where)
    # larger entries would leave orbit steps on the 2**-26 sampling lattice
    # inexact, and past int64 the torus cannot be built at all
    if any(x != int(x) or abs(x) >= 2**26 for row in m for x in row):
        raise ConfigError(f"{where} entries must be integers below 2**26 in magnitude")
    return [[int(x) for x in row] for row in m]


def _kind(d, where: str, kinds: dict, what: str | None = None) -> str:
    """The kind of section ``d``, once ``d`` is known to be a mapping that
    holds only its kind's keys; ``kinds`` maps each kind to those keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a mapping")
    if "kind" not in d:
        raise ConfigError(f"{where} is missing ['kind']")
    kind = d["kind"]
    # a kind that is not a string (a list, say) is unknown, not a TypeError
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what or where} kind {kind!r}")
    _expect_keys(d, required={"kind"}, optional=kinds[kind], where=where)
    return kind


def _read_trigs(d: dict, names: tuple) -> tuple[dict, dict]:
    """The trig expressions under ``names`` in ``d``, zero terms dropped:
    canonical data and TrigExprs, both keyed by name."""
    data = {}
    for name in names:
        expr = {} if d.get(name) is None else d[name]
        _expect_keys(expr, required=set(), optional=set(_TRIG_KEYS), where=name)
        coefs = {k: _number(v, f"{name}.{k}") for k, v in expr.items()}
        data[name] = {k: v for k, v in coefs.items() if v != 0.0}
    return data, {name: TrigExpr(**coefs) for name, coefs in data.items()}


def _read_base(b) -> tuple[dict, BaseSystem]:
    """The base section: canonical data and the system with its measure."""
    shift_keys = {"alphabet_size", "lambda0", "measure"}
    kind = _kind(b, "base", {"shift": shift_keys, "torus": {"matrix", "measure"}})
    if kind == "torus":
        if "matrix" not in b:
            raise ConfigError("torus base needs a matrix")
        matrix = _int_matrix(b["matrix"], "base.matrix")
        measure = b.get("measure") or {"kind": "lebesgue"}
        _kind(measure, "base.measure", {"lebesgue": set()}, what="torus measure")
        out = {"kind": kind, "matrix": matrix, "measure": {"kind": "lebesgue"}}
        return out, TorusSystem(matrix=matrix, measure=LebesgueMeasure())
    n = _integer(b.get("alphabet_size", 2), "base.alphabet_size")
    # checked before the default weights 1/n are made
    if not 2 <= n <= 1000:
        raise ConfigError("base.alphabet_size must be in [2, 1000]")
    lambda0 = _number(b.get("lambda0", 0.5), "base.lambda0")
    m = b.get("measure") or {"kind": "bernoulli"}
    shift_measures = {"bernoulli": {"weights"}, "markov": {"matrix"}}
    measure_kind = _kind(m, "base.measure", shift_measures, what="shift measure")
    if measure_kind == "bernoulli":
        weights = m.get("weights", [1.0 / n] * n)
        if not isinstance(weights, list):
            raise ConfigError("bernoulli weights must be a list")
        weights = [_number(w, "weights") for w in weights]
        measure = {"kind": measure_kind, "weights": weights}
        law = BernoulliMeasure(weights=weights)
    else:
        matrix = _float_matrix(m.get("matrix"), "markov matrix", (n, n))
        measure = {"kind": measure_kind, "matrix": matrix}
        law = MarkovMeasure(matrix=matrix)
    out = {"kind": kind, "alphabet_size": n, "lambda0": lambda0, "measure": measure}
    return out, ShiftSystem(alphabet_size=n, measure=law, lambda0=lambda0)


def _read_cocycle(c, base: dict) -> tuple[dict, CocycleSpec]:
    """The cocycle section over the canonical ``base``: canonical data and
    the spec."""
    kinds = {**_MATRIX_KINDS, "pointwise": {"factors"}}
    kind = _kind(c, "cocycle", {k: keys | {"r"} for k, keys in kinds.items()})
    r = _number(c.get("r", 1.0), "cocycle.r")
    try:
        if kind != "pointwise":
            return _read_matrices(c, kind, "cocycle", base, r)
        factors = c.get("factors")
        if not isinstance(factors, list) or not factors:
            raise ConfigError("cocycle.factors must be a nonempty list")
        read = [_read_factor(f) for f in factors]
    except SingularValueError as err:
        # a matrix fails mat2.regular; the spec names it ("matrix", "table entry i")
        where = "factor" if kind == "pointwise" else "cocycle"
        raise ConfigError(f"{where}.{err}") from err
    if base["kind"] != "torus":
        raise ConfigError("pointwise cocycles need a torus base")
    out = {"kind": kind, "factors": [data for data, _ in read], "r": r}
    return out, PointwiseCocycle(factors=tuple(f for _, f in read), r=r)


def _read_field(d, base: dict):
    """The perturbation's direction over the canonical ``base``: canonical
    data and the matrix field."""
    kind = _kind(d, "direction", {**_MATRIX_KINDS, "pointwise_entries": set(_ENTRIES)})
    if kind != "pointwise_entries":
        return _read_matrices(d, kind, "direction", base, r=None)
    data, exprs = _read_trigs(d, _ENTRIES)
    field = PointwiseEntriesField(**exprs)
    # a constant field is one matrix, which any base takes
    if base["kind"] != "torus" and not field.is_constant:
        raise ConfigError("non-constant pointwise_entries directions need a torus base")
    return {"kind": kind, **data}, field


def _read_matrices(d: dict, kind: str, where: str, base: dict, r: float | None):
    """A constant or locally constant section: a cocycle with Holder
    exponent ``r``, or for ``r=None`` a direction field, which may be
    singular and carries no exponent."""
    invertible = r is not None
    extra = {"r": r} if invertible else {}
    if kind == "constant":
        matrix = _float_matrix(d.get("matrix"), f"{where}.matrix")
        spec = ConstantCocycle(matrix=_np(matrix), invertible=invertible, **extra)
        return {"kind": kind, "matrix": matrix, **extra}, spec
    tab = d.get("table")
    if not isinstance(tab, list) or not tab:
        raise ConfigError(f"{where}.table must be a nonempty list of matrices")
    table = [_float_matrix(m, f"{where}.table entry") for m in tab]
    depth = _integer(d.get("depth", 1), f"{where}.depth")
    if "alphabet_size" not in base:
        raise ConfigError(f"locally constant {where}s need a shift base")
    spec = LocallyConstantCocycle(
        table=_np(table), depth=depth, alphabet_size=base["alphabet_size"],
        invertible=invertible, **extra,
    )
    return {"kind": kind, "table": table, "depth": depth, **extra}, spec


def _read_factor(f):
    """One factor of a pointwise cocycle: canonical data and the factor."""
    kinds = dict(rotation={"angle"}, diagonal={"log_d1", "log_d2"}, constant={"matrix"})
    kind = _kind(f, "factor", kinds)
    if kind == "constant":
        matrix = _float_matrix(f.get("matrix"), "factor.matrix")
        return {"kind": kind, "matrix": matrix}, ConstantFactor(matrix=_np(matrix))
    if kind == "rotation":
        data, exprs = _read_trigs(f, ("angle",))
        return {"kind": kind, **data}, RotationFactor(**exprs)
    data, exprs = _read_trigs(f, ("log_d1", "log_d2"))
    return {"kind": kind, **data}, DiagonalFactor(**exprs)


def _read_perturbation(
    p, base: dict, spec: CocycleSpec
) -> tuple[dict, PerturbationFamily]:
    """The perturbation section around ``spec`` over the canonical
    ``base``: canonical data and the family."""
    _expect_keys(
        p, required={"direction", "schedule"}, optional={"rule"}, where="perturbation"
    )
    rule = p.get("rule", "multiplicative_exp")
    if rule not in ("multiplicative_exp", "additive"):
        raise ConfigError(f"unknown perturbation rule {rule!r}")
    direction, field = _read_field(p["direction"], base)
    sched = p["schedule"]
    kind = _kind(sched, "schedule", {"dyadic": {"count"}, "explicit": {"values"}})
    if kind == "dyadic":
        count = _integer(sched.get("count", 12), "schedule.count")
        # checked before the family builds its sizes 2**-k: 2**-1075 is 0.0
        if not 1 <= count <= 1074:
            raise ConfigError(f"schedule.count must be in 1..1074, got {count}")
        schedule = {"kind": kind, "count": count}
        family = PerturbationFamily.dyadic(spec, field, rule, count)
    else:
        values = sched.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("explicit schedule needs values")
        values = [_number(v, "schedule value") for v in values]
        schedule = {"kind": kind, "values": values}
        family = PerturbationFamily(spec, field, rule, ts=tuple(values))
    return {"rule": rule, "schedule": schedule, "direction": direction}, family


def _norm_budgets(b) -> dict:
    _expect_keys(b, required=set(), optional=set(_BUDGETS), where="budgets")
    out = {key: _integer(b.get(key, v), f"budgets.{key}") for key, v in _BUDGETS.items()}
    if min(out.values()) < 1:
        raise ConfigError("budgets must be positive")
    return out
