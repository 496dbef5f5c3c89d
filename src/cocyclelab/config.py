"""YAML experiment configs: load, validate, canonicalize, hash, build.

A config fully determines an experiment: the base system, the cocycle, an
optional perturbation family, sampling budgets, epsilon, and the seed.
Normalization fills every default and coerces every number, so two configs
that mean the same experiment serialize to the same canonical text and
share one hash.
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
from .errors import ConfigError

_TRIG_KEYS = ("const", "lin_u", "lin_v", "sin_u", "cos_u", "sin_v", "cos_v")


@dataclass(frozen=True, eq=False)
class Config:
    """A normalized experiment description; ``data`` is plain nested
    dict/list/scalar material, safe to serialize."""

    data: dict

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


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
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
    out = {
        "base": _norm_base(data["base"]),
        "cocycle": _norm_cocycle(data["cocycle"]),
        "budgets": _norm_budgets(data.get("budgets") or {}),
        "epsilon": _number(data.get("epsilon", 0.1), "epsilon"),
        "seed": _seed(data.get("seed", 0), "seed"),
        "output_dir": _text(data.get("output_dir", "out"), "output_dir"),
    }
    if out["epsilon"] <= 0.0:
        raise ConfigError("epsilon must be positive")
    if "perturbation" in data and data["perturbation"] is not None:
        out["perturbation"] = _norm_perturbation(data["perturbation"])
    cfg = Config(data=out)
    # exercise every builder so a loaded config is known to construct
    build_system(cfg)
    base = build_cocycle(cfg)
    if "perturbation" in out:
        build_family(cfg, base=base)
    return cfg


def dump_config(cfg: Config) -> str:
    """Canonical YAML text; equal configs produce equal text."""
    return yaml.safe_dump(cfg.data, sort_keys=True, default_flow_style=False)


def config_hash(cfg: Config) -> str:
    """sha256 of the canonical serialization."""
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# builders


def build_system(cfg: Config) -> BaseSystem:
    b = cfg.data["base"]
    if b["kind"] == "shift":
        m = b["measure"]
        if m["kind"] == "bernoulli":
            measure = BernoulliMeasure(weights=tuple(m["weights"]))
        else:
            measure = MarkovMeasure(
                matrix=tuple(tuple(row) for row in m["matrix"])
            )
        return ShiftSystem(
            alphabet_size=b["alphabet_size"],
            measure=measure,
            lambda0=b["lambda0"],
        )
    return TorusSystem(
        matrix=tuple(tuple(row) for row in b["matrix"]),
        measure=LebesgueMeasure(),
    )


def build_cocycle(cfg: Config):
    c = cfg.data["cocycle"]
    if c["kind"] == "constant":
        return ConstantCocycle(matrix=_np(c["matrix"]), r=c["r"])
    if c["kind"] == "locally_constant":
        alphabet = cfg.data["base"].get("alphabet_size")
        if alphabet is None:
            raise ConfigError("locally constant cocycles need a shift base")
        return LocallyConstantCocycle(
            table=_np(c["table"]), r=c["r"], depth=c["depth"], alphabet_size=alphabet
        )
    if cfg.data["base"]["kind"] != "torus":
        raise ConfigError("pointwise cocycles need a torus base")
    return PointwiseCocycle(
        factors=tuple(_build_factor(f) for f in c["factors"]), r=c["r"]
    )


def build_family(
    cfg: Config, base: CocycleSpec | None = None
) -> PerturbationFamily:
    """The config's perturbation family around ``base``, which defaults to
    a freshly built ``build_cocycle(cfg)``."""
    if "perturbation" not in cfg.data:
        raise ConfigError("config has no perturbation section")
    p = cfg.data["perturbation"]
    sched = p["schedule"]
    base = build_cocycle(cfg) if base is None else base
    direction = _build_field(p["direction"], cfg)
    if sched["kind"] == "dyadic":
        return PerturbationFamily.dyadic(base, direction, p["rule"], sched["count"])
    return PerturbationFamily(
        base=base, direction=direction, rule=p["rule"], ts=tuple(sched["values"])
    )


def _build_factor(f: dict):
    if f["kind"] == "rotation":
        return RotationFactor(angle=_trig(f["angle"]))
    if f["kind"] == "diagonal":
        return DiagonalFactor(log_d1=_trig(f["log_d1"]), log_d2=_trig(f["log_d2"]))
    return ConstantFactor(matrix=_np(f["matrix"]))


def _build_field(d: dict, cfg: Config):
    if d["kind"] == "constant":
        return ConstantCocycle(matrix=_np(d["matrix"]), invertible=False)
    if d["kind"] == "locally_constant":
        alphabet = cfg.data["base"].get("alphabet_size")
        if alphabet is None:
            raise ConfigError("locally constant fields need a shift base")
        return LocallyConstantCocycle(
            table=_np(d["table"]), depth=d["depth"], alphabet_size=alphabet,
            invertible=False,
        )
    return PointwiseEntriesField(
        e00=_trig(d["e00"]), e01=_trig(d["e01"]),
        e10=_trig(d["e10"]), e11=_trig(d["e11"]),
    )


def _trig(d: dict) -> TrigExpr:
    return TrigExpr(**d)


def _np(rows):
    return np.asarray(rows, dtype=float)


# ---------------------------------------------------------------------------
# normalization


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
    out = []
    for row in m:
        for x in row:
            if x != int(x):
                raise ConfigError(f"{where} entries must be integers")
        out.append([int(x) for x in row])
    return out


def _norm_trig(d, where: str) -> dict:
    if d is None:
        return {}
    _expect_keys(d, required=set(), optional=set(_TRIG_KEYS), where=where)
    out = {k: _number(v, f"{where}.{k}") for k, v in d.items()}
    return {k: v for k, v in out.items() if v != 0.0}


def _norm_base(b) -> dict:
    _expect_keys(
        b,
        required={"kind"},
        optional={"alphabet_size", "lambda0", "measure", "matrix"},
        where="base",
    )
    kind = b.get("kind")
    if kind == "shift":
        out = {
            "kind": "shift",
            "alphabet_size": _integer(b.get("alphabet_size", 2), "base.alphabet_size"),
            "lambda0": _number(b.get("lambda0", 0.5), "base.lambda0"),
        }
        m = b.get("measure") or {"kind": "bernoulli"}
        _expect_keys(
            m, required={"kind"}, optional={"weights", "matrix"}, where="base.measure"
        )
        if m["kind"] == "bernoulli":
            weights = m.get(
                "weights", [1.0 / out["alphabet_size"]] * out["alphabet_size"]
            )
            if not isinstance(weights, list):
                raise ConfigError("bernoulli weights must be a list")
            out["measure"] = {
                "kind": "bernoulli",
                "weights": [_number(w, "weights") for w in weights],
            }
        elif m["kind"] == "markov":
            n = out["alphabet_size"]
            out["measure"] = {
                "kind": "markov",
                "matrix": _float_matrix(m.get("matrix"), "markov matrix", (n, n)),
            }
        else:
            raise ConfigError(f"unknown shift measure kind {m.get('kind')!r}")
        return out
    if kind == "torus":
        if "matrix" not in b:
            raise ConfigError("torus base needs a matrix")
        return {
            "kind": "torus",
            "matrix": _int_matrix(b["matrix"], "base.matrix"),
            "measure": {"kind": "lebesgue"},
        }
    raise ConfigError(f"unknown base kind {kind!r}")


def _norm_cocycle(c) -> dict:
    _expect_keys(
        c,
        required={"kind"},
        optional={"matrix", "table", "depth", "factors", "r"},
        where="cocycle",
    )
    kind = c.get("kind")
    r = _number(c.get("r", 1.0), "cocycle.r")
    if kind == "constant":
        return {"kind": "constant", "matrix": _float_matrix(c.get("matrix"), "cocycle.matrix"), "r": r}
    if kind == "locally_constant":
        tab = c.get("table")
        if not isinstance(tab, list) or not tab:
            raise ConfigError("cocycle.table must be a nonempty list of matrices")
        return {
            "kind": "locally_constant",
            "table": [_float_matrix(m, "cocycle.table entry") for m in tab],
            "depth": _integer(c.get("depth", 1), "cocycle.depth"),
            "r": r,
        }
    if kind == "pointwise":
        factors = c.get("factors")
        if not isinstance(factors, list) or not factors:
            raise ConfigError("cocycle.factors must be a nonempty list")
        return {
            "kind": "pointwise",
            "factors": [_norm_factor(f) for f in factors],
            "r": r,
        }
    raise ConfigError(f"unknown cocycle kind {kind!r}")


def _norm_factor(f) -> dict:
    _expect_keys(
        f,
        required={"kind"},
        optional={"angle", "log_d1", "log_d2", "matrix"},
        where="factor",
    )
    kind = f.get("kind")
    if kind == "rotation":
        return {"kind": "rotation", "angle": _norm_trig(f.get("angle"), "angle")}
    if kind == "diagonal":
        return {
            "kind": "diagonal",
            "log_d1": _norm_trig(f.get("log_d1"), "log_d1"),
            "log_d2": _norm_trig(f.get("log_d2"), "log_d2"),
        }
    if kind == "constant":
        return {"kind": "constant", "matrix": _float_matrix(f.get("matrix"), "factor.matrix")}
    raise ConfigError(f"unknown factor kind {kind!r}")


def _norm_perturbation(p) -> dict:
    _expect_keys(
        p,
        required={"direction", "schedule"},
        optional={"rule"},
        where="perturbation",
    )
    rule = p.get("rule", "multiplicative_exp")
    if rule not in ("multiplicative_exp", "additive"):
        raise ConfigError(f"unknown perturbation rule {rule!r}")
    sched = p["schedule"]
    _expect_keys(
        sched, required={"kind"}, optional={"count", "values"}, where="schedule"
    )
    if sched["kind"] == "dyadic":
        count = _integer(sched.get("count", 12), "schedule.count")
        if count < 1:
            raise ConfigError("schedule.count must be >= 1")
        norm_sched = {"kind": "dyadic", "count": count}
    elif sched["kind"] == "explicit":
        values = sched.get("values")
        if not isinstance(values, list) or not values:
            raise ConfigError("explicit schedule needs values")
        norm_sched = {
            "kind": "explicit",
            "values": [_number(v, "schedule value") for v in values],
        }
    else:
        raise ConfigError(f"unknown schedule kind {sched['kind']!r}")
    return {
        "rule": rule,
        "schedule": norm_sched,
        "direction": _norm_field(p["direction"]),
    }


def _norm_field(d) -> dict:
    _expect_keys(
        d,
        required={"kind"},
        optional={"matrix", "table", "depth", "e00", "e01", "e10", "e11"},
        where="direction",
    )
    kind = d.get("kind")
    if kind == "constant":
        return {"kind": "constant", "matrix": _float_matrix(d.get("matrix"), "direction.matrix")}
    if kind == "locally_constant":
        tab = d.get("table")
        if not isinstance(tab, list) or not tab:
            raise ConfigError("direction.table must be a nonempty list")
        return {
            "kind": "locally_constant",
            "table": [_float_matrix(m, "direction.table entry") for m in tab],
            "depth": _integer(d.get("depth", 1), "direction.depth"),
        }
    if kind == "pointwise_entries":
        return {
            "kind": "pointwise_entries",
            "e00": _norm_trig(d.get("e00"), "e00"),
            "e01": _norm_trig(d.get("e01"), "e01"),
            "e10": _norm_trig(d.get("e10"), "e10"),
            "e11": _norm_trig(d.get("e11"), "e11"),
        }
    raise ConfigError(f"unknown direction kind {kind!r}")


def _norm_budgets(b) -> dict:
    _expect_keys(
        b,
        required=set(),
        optional={"samples", "depth", "n_max"},
        where="budgets",
    )
    out = {
        "samples": _integer(b.get("samples", 1000), "budgets.samples"),
        "depth": _integer(b.get("depth", 40), "budgets.depth"),
        "n_max": _integer(b.get("n_max", 400), "budgets.n_max"),
    }
    if out["samples"] < 1 or out["depth"] < 1 or out["n_max"] < 1:
        raise ConfigError("budgets must be positive")
    return out
