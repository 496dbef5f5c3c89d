"""Config loading, canonical serialization, hashing, and builders."""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np
import pytest
import yaml

from cocyclelab.base import MarkovMeasure, ShiftSystem, TorusSystem
from cocyclelab.cocycle import (
    ConstantCocycle,
    LocallyConstantCocycle,
    PointwiseCocycle,
)
from cocyclelab.config import (
    build_cocycle,
    build_family,
    build_system,
    config_hash,
    dump_config,
    load_config,
    normalize_config,
)
from cocyclelab.cli import main
from cocyclelab.continuity import PerturbationFamily, continuity_experiment
from cocyclelab.errors import ConfigError

SHIFT_CFG = {
    "base": {
        "kind": "shift",
        "alphabet_size": 2,
        "measure": {"kind": "bernoulli", "weights": [0.5, 0.5]},
    },
    "cocycle": {
        "kind": "locally_constant",
        "table": [[[1.2, 0.0], [0.0, 1 / 1.2]], [[1.19, -0.12], [0.12, 0.82]]],
    },
    "perturbation": {
        "rule": "multiplicative_exp",
        "schedule": {"kind": "dyadic", "count": 4},
        "direction": {"kind": "constant", "matrix": [[0.0, -1.0], [1.0, 0.0]]},
    },
    "budgets": {"samples": 500, "depth": 30, "n_max": 200},
    "epsilon": 0.1,
    "seed": 3,
}

TORUS_CFG = {
    "base": {"kind": "torus", "matrix": [[2, 1], [1, 1]]},
    "cocycle": {
        "kind": "pointwise",
        "factors": [
            {"kind": "rotation", "angle": {"sin_u": 0.2}},
            {"kind": "constant", "matrix": [[1.5, 0.0], [0.0, 1 / 1.5]]},
        ],
    },
}

# every kind the shift and torus configs above leave out
MARKOV_CFG = {
    "base": {
        "kind": "shift",
        "alphabet_size": 2,
        "lambda0": 0.4,
        "measure": {"kind": "markov", "matrix": [[0.9, 0.1], [0.2, 0.8]]},
    },
    "cocycle": {
        "kind": "locally_constant",
        "depth": 2,
        "r": 0.5,
        "table": [
            [[1.2, 0.0], [0.0, 0.8]],
            [[1.1, 0.1], [0.0, 0.9]],
            [[1.3, 0.0], [0.2, 0.7]],
            [[1.0, -0.1], [0.1, 1.0]],
        ],
    },
    "perturbation": {
        "rule": "additive",
        "schedule": {"kind": "explicit", "values": [0.25, 0.125]},
        "direction": {
            "kind": "locally_constant",
            "table": [[[0.0, -1.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        },
    },
}

ENTRIES_CFG = {
    "base": {"kind": "torus", "matrix": [[2, 1], [1, 1]], "measure": {"kind": "lebesgue"}},
    "cocycle": {
        "kind": "pointwise",
        "factors": [
            {"kind": "diagonal", "log_d1": {"const": 0.4, "cos_v": 0.1}, "log_d2": {"const": -0.4}},
            {"kind": "rotation", "angle": {"sin_u": 0.2}},
        ],
    },
    "perturbation": {
        "schedule": {"kind": "dyadic", "count": 3},
        "direction": {
            "kind": "pointwise_entries",
            "e01": {"const": -1.0, "sin_u": 0.2},
            "e10": {"const": 1.0},
        },
    },
}

CONSTANT_CFG = {
    "base": SHIFT_CFG["base"],
    "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]], "r": 0.5},
}


def edited(data: dict, path: tuple, **changes) -> dict:
    """A deep copy of ``data`` with ``changes`` made to the section at
    ``path``."""
    out = copy.deepcopy(data)
    section = out
    for key in path:
        section = section[key]
    section.update(changes)
    return out


class TestNormalize:
    def test_defaults_filled(self):
        cfg = normalize_config(TORUS_CFG)
        assert cfg.seed == 0
        assert cfg.epsilon == 0.1
        assert cfg.output_dir == "out"
        assert cfg.samples == 1000 and cfg.depth == 40 and cfg.n_max == 400
        assert cfg.data["budgets"].keys() == {"samples", "depth", "n_max"}
        assert cfg.data["base"].keys() == {"kind", "matrix", "measure"}

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            normalize_config({**TORUS_CFG, "colour": 1})

    def test_unknown_section_key(self):
        bad = {**TORUS_CFG, "base": {**TORUS_CFG["base"], "speed": 2}}
        with pytest.raises(ConfigError, match="speed"):
            normalize_config(bad)

    def test_missing_cocycle(self):
        with pytest.raises(ConfigError, match="missing"):
            normalize_config({"base": TORUS_CFG["base"]})

    def test_bad_epsilon(self):
        with pytest.raises(ConfigError, match="epsilon"):
            normalize_config({**TORUS_CFG, "epsilon": 0.0})

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="10**400")],
    )
    def test_non_finite_numbers_rejected(self, value):
        for data, key in (
            ({**TORUS_CFG, "epsilon": value}, "epsilon"),
            ({**SHIFT_CFG, "base": {**SHIFT_CFG["base"], "lambda0": value}}, "base.lambda0"),
            ({**TORUS_CFG, "cocycle": {**TORUS_CFG["cocycle"], "r": value}}, "cocycle.r"),
        ):
            with pytest.raises(ConfigError, match=f"{key} must be finite"):
                normalize_config(data)

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("shift_bunched", "545ea77e0a2ffbe9f2c975b3dd1d7308a528a61dc583e5ccf53924062d1610db"),
            ("shift_gapped", "9df3d2ffdf65b562d6c44030b87aee0c68dc8c7e37730eec6043175efbf70dd6"),
            ("torus_pointwise", "73a715f49a072ca2a726a81e4b071cb554611906f4f0b8df42b030430f83bad6"),
        ],
    )
    def test_shipped_hashes_pinned(self, name, digest):
        # validation may refuse more configs, but a valid one keeps its hash
        root = Path(__file__).resolve().parent.parent
        assert config_hash(load_config(str(root / "configs" / f"{name}.yaml"))) == digest

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            normalize_config({**TORUS_CFG, "seed": True})

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -3"):
            normalize_config({**TORUS_CFG, "seed": -3})

    def test_torus_matrix_must_be_integer(self):
        bad = {**TORUS_CFG, "base": {"kind": "torus", "matrix": [[2.5, 1], [1, 1]]}}
        with pytest.raises(ConfigError, match="integer"):
            normalize_config(bad)

    @pytest.mark.parametrize("entry", [1.0e300, 10**30, 2**26, -(2**26)])
    def test_torus_matrix_entries_bounded(self, entry):
        # an integral float past int64 must not reach the torus as a Python int
        bad = edited(TORUS_CFG, ("base",), matrix=[[entry, 1], [1, 1]])
        message = r"^base\.matrix entries must be integers below 2\*\*26 in magnitude$"
        with pytest.raises(ConfigError, match=message):
            normalize_config(bad)
        big = 2**26 - 1
        cfg = normalize_config(edited(TORUS_CFG, ("base",), matrix=[[big, 1], [big - 1, 1]]))
        assert build_system(cfg).matrix == ((big, 1), (big - 1, 1))

    @pytest.mark.parametrize("n", [0, -1, 1, 1001])
    @pytest.mark.parametrize("weights", [[0.5, 0.5], None], ids=["weights", "default"])
    def test_alphabet_size_checked_first(self, n, weights, tmp_path, capsys):
        # the range is checked before the default weights 1/n are made
        measure = {"kind": "bernoulli"}
        if weights is not None:
            measure["weights"] = weights
        bad = edited(SHIFT_CFG, ("base",), alphabet_size=n, measure=measure)
        message = r"^base\.alphabet_size must be in \[2, 1000\]$"
        with pytest.raises(ConfigError, match=message):
            normalize_config(bad)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad))
        assert main(["lyapunov", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: base.alphabet_size ") and "Traceback" not in err

    def test_bad_trig_coefficient_named_with_its_path(self):
        bad = {
            **TORUS_CFG,
            "cocycle": {
                "kind": "pointwise",
                "factors": [{"kind": "rotation", "angle": {"sin_u": "x"}}],
            },
        }
        with pytest.raises(ConfigError, match=r"^angle\.sin_u must be a number"):
            normalize_config(bad)

    def test_pointwise_needs_torus(self):
        bad = {"base": SHIFT_CFG["base"], "cocycle": TORUS_CFG["cocycle"]}
        with pytest.raises(ConfigError, match="torus"):
            normalize_config(bad)

    @pytest.mark.parametrize("command", ["lyapunov", "continuity"])
    def test_varying_pointwise_direction_needs_torus(self, command, tmp_path, capsys):
        # refused at load, before any base work, whatever the subcommand
        varying = ENTRIES_CFG["perturbation"]["direction"]
        bad = edited(SHIFT_CFG, ("perturbation",), direction=varying)
        message = "non-constant pointwise_entries directions need a torus base"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            normalize_config(bad)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(bad))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_constant_pointwise_direction_runs_on_a_shift(self):
        direction = {
            "kind": "pointwise_entries", "e01": {"const": -1.0}, "e10": {"const": 1.0}
        }
        cfg = normalize_config(edited(SHIFT_CFG, ("perturbation",), direction=direction))
        fam = build_family(cfg)
        report = continuity_experiment(
            fam, build_system(cfg), samples=40, depth=10, n_window=20, seed=1
        )
        # the same family as the constant-matrix direction it spells
        same = build_family(normalize_config(SHIFT_CFG))
        want = continuity_experiment(
            same, build_system(cfg), samples=40, depth=10, n_window=20, seed=1
        )
        assert repr(report.rows) == repr(want.rows) and len(report.rows) == 4

    def test_markov_measure(self):
        cfg = normalize_config(
            {
                "base": {
                    "kind": "shift",
                    "alphabet_size": 2,
                    "measure": {"kind": "markov", "matrix": [[0.9, 0.1], [0.2, 0.8]]},
                },
                "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
            }
        )
        sys = build_system(cfg)
        assert isinstance(sys.measure, MarkovMeasure)

    def test_markov_shape_checked(self):
        with pytest.raises(ConfigError, match="markov matrix"):
            normalize_config(
                {
                    "base": {
                        "kind": "shift",
                        "alphabet_size": 2,
                        "measure": {"kind": "markov", "matrix": [[1.0]]},
                    },
                    "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
                }
            )


class TestKeysOfAnotherKind:
    """A section takes the keys of its own kind only: a key that another
    kind of the same section takes is refused, never dropped."""

    @pytest.mark.parametrize(
        "data, path, key, value",
        [
            (SHIFT_CFG, ("base",), "matrix", [[2, 1], [1, 1]]),
            (TORUS_CFG, ("base",), "lambda0", 0.3),
            (SHIFT_CFG, ("base", "measure"), "matrix", [[0.5, 0.5], [0.5, 0.5]]),
            (MARKOV_CFG, ("base", "measure"), "weights", [0.5, 0.5]),
            (ENTRIES_CFG, ("base", "measure"), "weights", [0.5, 0.5]),
            (CONSTANT_CFG, ("cocycle",), "depth", 1),
            (SHIFT_CFG, ("cocycle",), "factors", TORUS_CFG["cocycle"]["factors"]),
            (TORUS_CFG, ("cocycle",), "depth", 2),
            (TORUS_CFG, ("cocycle", "factors", 0), "matrix", [[1.0, 0.0], [0.0, 1.0]]),
            (ENTRIES_CFG, ("cocycle", "factors", 0), "angle", {"sin_u": 0.1}),
            (TORUS_CFG, ("cocycle", "factors", 1), "log_d1", {"const": 0.1}),
            (SHIFT_CFG, ("perturbation", "direction"), "depth", 2),
            (MARKOV_CFG, ("perturbation", "direction"), "e00", {"const": 1.0}),
            (ENTRIES_CFG, ("perturbation", "direction"), "matrix", [[0.0, 1.0], [1.0, 0.0]]),
            (SHIFT_CFG, ("perturbation", "schedule"), "values", [0.5]),
            (MARKOV_CFG, ("perturbation", "schedule"), "count", 3),
        ],
        ids=[
            "base-shift", "base-torus",
            "measure-bernoulli", "measure-markov", "measure-lebesgue",
            "cocycle-constant", "cocycle-locally_constant", "cocycle-pointwise",
            "factor-rotation", "factor-diagonal", "factor-constant",
            "direction-constant", "direction-locally_constant",
            "direction-pointwise_entries",
            "schedule-dyadic", "schedule-explicit",
        ],
    )
    def test_refused(self, data, path, key, value):
        normalize_config(data)
        with pytest.raises(ConfigError, match=rf"has unknown keys \['{key}'\]$"):
            normalize_config(edited(data, path, **{key: value}))

    def test_measure_of_another_base(self):
        bad = edited(TORUS_CFG, ("base",), measure={"kind": "bernoulli"})
        with pytest.raises(ConfigError, match="^unknown torus measure kind 'bernoulli'$"):
            normalize_config(bad)

    @pytest.mark.parametrize(
        "data, path, what",
        [
            (SHIFT_CFG, ("base",), "base"),
            (SHIFT_CFG, ("base", "measure"), "shift measure"),
            (ENTRIES_CFG, ("base", "measure"), "torus measure"),
            (SHIFT_CFG, ("cocycle",), "cocycle"),
            (TORUS_CFG, ("cocycle", "factors", 0), "factor"),
            (SHIFT_CFG, ("perturbation", "direction"), "direction"),
            (SHIFT_CFG, ("perturbation", "schedule"), "schedule"),
        ],
        ids=[
            "base", "measure-shift", "measure-torus", "cocycle", "factor",
            "direction", "schedule",
        ],
    )
    def test_kind_that_is_not_a_string(self, data, path, what):
        bad = edited(data, path, kind=["shift"])
        with pytest.raises(ConfigError, match=rf"^unknown {what} kind \['shift'\]$"):
            normalize_config(bad)


class TestRoundTrip:
    def test_dump_load_identity(self, tmp_path):
        cfg = normalize_config(SHIFT_CFG)
        path = tmp_path / "exp.yaml"
        path.write_text(dump_config(cfg), encoding="utf-8")
        again = load_config(str(path))
        assert again.data == cfg.data
        assert config_hash(again) == config_hash(cfg)

    @pytest.mark.parametrize(
        "data",
        [SHIFT_CFG, TORUS_CFG, MARKOV_CFG, ENTRIES_CFG, CONSTANT_CFG],
        ids=["shift", "torus", "markov-depth2-explicit", "entries-diagonal", "constant"],
    )
    def test_canonical_text_reads_back_unchanged(self, data):
        # the builders read the canonical data back through the same readers
        cfg = normalize_config(data)
        assert normalize_config(yaml.safe_load(dump_config(cfg))).data == cfg.data

    def test_hash_ignores_spelled_defaults(self):
        minimal = normalize_config(TORUS_CFG)
        spelled = normalize_config(
            {**TORUS_CFG, "seed": 0, "epsilon": 0.1, "output_dir": "out"}
        )
        assert config_hash(minimal) == config_hash(spelled)

    def test_hash_sensitive_to_content(self):
        a = normalize_config(TORUS_CFG)
        b = normalize_config({**TORUS_CFG, "seed": 1})
        assert config_hash(a) != config_hash(b)
        assert len(config_hash(a)) == 64

    def test_trig_zero_terms_dropped(self):
        with_zero = {
            **TORUS_CFG,
            "cocycle": {
                "kind": "pointwise",
                "factors": [
                    {"kind": "rotation", "angle": {"sin_u": 0.2, "const": 0.0}}
                ],
            },
        }
        without = {
            **TORUS_CFG,
            "cocycle": {
                "kind": "pointwise",
                "factors": [{"kind": "rotation", "angle": {"sin_u": 0.2}}],
            },
        }
        assert config_hash(normalize_config(with_zero)) == config_hash(
            normalize_config(without)
        )

    def test_dump_is_sorted_text(self):
        text = dump_config(normalize_config(TORUS_CFG))
        lines = [l for l in text.splitlines() if l and not l.startswith(" ")]
        assert lines == sorted(lines)


class TestBuilders:
    def test_shift_system(self):
        sys = build_system(normalize_config(SHIFT_CFG))
        assert isinstance(sys, ShiftSystem)
        assert sys.alphabet_size == 2 and sys.lambda0 == 0.5

    def test_torus_system(self):
        sys = build_system(normalize_config(TORUS_CFG))
        assert isinstance(sys, TorusSystem)
        assert sys.matrix == ((2, 1), (1, 1))

    def test_cocycle_kinds(self):
        assert isinstance(
            build_cocycle(normalize_config(SHIFT_CFG)), LocallyConstantCocycle
        )
        assert isinstance(build_cocycle(normalize_config(TORUS_CFG)), PointwiseCocycle)
        const = normalize_config(
            {
                "base": TORUS_CFG["base"],
                "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
            }
        )
        spec = build_cocycle(const)
        assert isinstance(spec, ConstantCocycle)
        assert np.array_equal(spec.matrix, np.diag([2.0, 0.5]))

    def test_family_dyadic(self):
        fam = build_family(normalize_config(SHIFT_CFG))
        assert fam.ts == (0.5, 0.25, 0.125, 0.0625)
        assert fam.ts == PerturbationFamily.dyadic(fam.base, fam.direction, count=4).ts
        assert fam.rule == "multiplicative_exp"

    def test_longest_dyadic_schedule(self):
        # 2**-1074, the smallest subnormal, is the last size above 0.0
        cfg = dict(SHIFT_CFG)
        cfg["perturbation"] = {
            **SHIFT_CFG["perturbation"],
            "schedule": {"kind": "dyadic", "count": 1074},
        }
        fam = build_family(normalize_config(cfg))
        assert len(fam.ts) == 1074 and fam.ts[-1] == 2.0**-1074 > 0.0

    def test_family_explicit_schedule(self):
        cfg = dict(SHIFT_CFG)
        cfg["perturbation"] = {
            **SHIFT_CFG["perturbation"],
            "schedule": {"kind": "explicit", "values": [0.3, 0.1]},
        }
        fam = build_family(normalize_config(cfg))
        assert fam.ts == (0.3, 0.1)

    def test_read_and_built_once(self, monkeypatch):
        from cocyclelab import config

        readers = ("_read_base", "_read_cocycle", "_read_perturbation", "_norm_budgets")
        calls = []
        for name in readers:
            def counted(*args, _read=getattr(config, name), _name=name):
                calls.append(_name)
                return _read(*args)

            monkeypatch.setattr(config, name, counted)
        root = Path(__file__).resolve().parent.parent
        cfg = load_config(str(root / "configs" / "shift_gapped.yaml"))
        assert build_system(cfg) is build_system(cfg)
        assert build_cocycle(cfg) is build_cocycle(cfg)
        assert build_family(cfg) is build_family(cfg)
        assert build_family(cfg).base is build_cocycle(cfg)
        assert sorted(calls) == sorted(readers)

    def test_family_requires_section(self):
        with pytest.raises(ConfigError, match="perturbation"):
            build_family(normalize_config(TORUS_CFG))
