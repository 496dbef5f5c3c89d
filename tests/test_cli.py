"""Command line behavior: outputs, provenance, determinism, exit codes."""

from __future__ import annotations

import importlib
import os
import pkgutil
from pathlib import Path

import numpy as np
import pytest
import yaml

import cocyclelab
from cocyclelab import cli
from cocyclelab.base import sample_points
from cocyclelab.cli import GOODSET_COLUMNS, main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FAST_SHIFT = {
    "base": {
        "kind": "shift",
        "alphabet_size": 2,
        "measure": {"kind": "bernoulli", "weights": [0.5, 0.5]},
    },
    "cocycle": {
        "kind": "locally_constant",
        "table": [
            [[1.2, 0.0], [0.0, 1 / 1.2]],
            [[1.194004998333631, -0.0831945138723568],
             [0.11980009997619379, 0.8291701377316882]],
        ],
    },
    "perturbation": {
        "rule": "multiplicative_exp",
        "schedule": {"kind": "dyadic", "count": 3},
        "direction": {"kind": "constant", "matrix": [[0.0, -1.0], [1.0, 0.0]]},
    },
    "budgets": {"samples": 150, "depth": 25, "n_max": 60},
    "epsilon": 0.1,
    "seed": 5,
}


FAST_TORUS = {
    "base": {"kind": "torus", "matrix": [[2, 1], [1, 1]]},
    "cocycle": {
        "kind": "pointwise",
        "factors": [
            {"kind": "rotation", "angle": {"sin_u": 0.15, "cos_v": 0.1}},
            {"kind": "constant", "matrix": [[1.5, 0.0], [0.0, 1 / 1.5]]},
        ],
    },
    "perturbation": {
        "rule": "multiplicative_exp",
        "schedule": {"kind": "dyadic", "count": 3},
        "direction": {
            "kind": "pointwise_entries",
            "e01": {"const": -1.0, "sin_u": 0.2},
            "e10": {"const": 1.0, "sin_u": -0.2},
        },
    },
    "budgets": {"samples": 100, "depth": 20, "n_max": 40},
    "seed": 2,
}

COMMANDS = ("lyapunov", "oseledets", "bunching", "projective", "continuity", "selftest")


@pytest.fixture
def shift_cfg(tmp_path):
    path = tmp_path / "shift.yaml"
    path.write_text(yaml.safe_dump(FAST_SHIFT))
    return str(path)


def run(argv):
    return main(argv)


class TestOutputs:
    def test_lyapunov_writes_csv(self, shift_cfg, tmp_path):
        out = tmp_path / "o1"
        assert run(["lyapunov", "--config", shift_cfg, "--out", str(out)]) == 0
        text = (out / "lyapunov.csv").read_text().splitlines()
        assert text[0].startswith("# cocyclelab 0.1.0 config_sha256=")
        assert "seed=5" in text[0]
        assert text[1].startswith("lambda_plus,")
        assert len(text) == 3

    def test_oseledets_rows(self, shift_cfg, tmp_path):
        out = tmp_path / "o2"
        assert run(["oseledets", "--config", shift_cfg, "--out", str(out)]) == 0
        lines = (out / "oseledets.csv").read_text().splitlines()
        assert lines[1] == "i,angle_u,angle_s,sin_angle_between"
        assert len(lines) == 2 + 150

    def test_float_format_roundtrips(self, shift_cfg, tmp_path):
        out = tmp_path / "o3"
        run(["lyapunov", "--config", shift_cfg, "--out", str(out)])
        row = (out / "lyapunov.csv").read_text().splitlines()[2].split(",")
        val = float(row[0])
        assert format(val, ".17g") == row[0]

    def test_projective_summary(self, shift_cfg, tmp_path, capsys):
        out = tmp_path / "o4"
        assert run(["projective", "--config", shift_cfg, "--out", str(out)]) == 0
        lines = (out / "projective.csv").read_text().splitlines()
        assert lines[1] == "kind,angle"
        assert len(lines) == 2 + 2 * 150
        assert "invariance defect" in capsys.readouterr().out

    def test_selftest_passes(self, shift_cfg, tmp_path, capsys):
        assert run(["selftest", "--config", shift_cfg, "--out", str(tmp_path / "o5")]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 3
        assert "3/3" in out


class TestContinuityCommand:
    def test_goodset_columns_and_plots(self, shift_cfg, tmp_path):
        out = tmp_path / "c1"
        assert run(["continuity", "--config", shift_cfg, "--out", str(out)]) == 0
        lines = (out / "goodset.csv").read_text().splitlines()
        assert lines[1] == ",".join(GOODSET_COLUMNS)
        assert len(lines) == 2 + 3
        assert (out / "goodset.svg").exists()
        assert (out / "displacements.svg").exists()

    def test_same_seed_byte_identical(self, shift_cfg, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run(["continuity", "--config", shift_cfg, "--out", str(out1)])
        run(["continuity", "--config", shift_cfg, "--out", str(out2)])
        assert (out1 / "goodset.csv").read_bytes() == (out2 / "goodset.csv").read_bytes()
        assert (out1 / "goodset.svg").read_bytes() == (out2 / "goodset.svg").read_bytes()

    def test_threads_byte_identical(self, shift_cfg, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t8"
        run(["continuity", "--config", shift_cfg, "--out", str(out1), "--threads", "1"])
        run(["continuity", "--config", shift_cfg, "--out", str(out2), "--threads", "8"])
        assert (out1 / "goodset.csv").read_bytes() == (out2 / "goodset.csv").read_bytes()

    def test_seed_override_changes_provenance(self, shift_cfg, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run(["lyapunov", "--config", shift_cfg, "--out", str(out1)])
        run(["lyapunov", "--config", shift_cfg, "--out", str(out2), "--seed", "9"])
        head1 = (out1 / "lyapunov.csv").read_text().splitlines()[0]
        head2 = (out2 / "lyapunov.csv").read_text().splitlines()[0]
        assert head1.endswith("seed=5") and head2.endswith("seed=9")

    def test_singular_perturbation_row_censored(self, tmp_path):
        # t=1 zeroes the top left entry of the first table matrix; the t=1/2
        # member is an ordinary hyperbolic table
        singular = {
            **FAST_SHIFT,
            "perturbation": {
                "rule": "additive",
                "schedule": {"kind": "explicit", "values": [1.0, 0.5]},
                "direction": {"kind": "constant", "matrix": [[-1.2, 0.0], [0.0, 0.0]]},
            },
        }
        path = tmp_path / "singular.yaml"
        path.write_text(yaml.safe_dump(singular))
        out = tmp_path / "o"
        assert run(["continuity", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "goodset.csv").read_text().splitlines()
        assert len(lines) == 2 + 2
        first = lines[2].split(",")
        second = lines[3].split(",")
        assert first[:2] == ["1", "1"] and set(first[2:]) == {"nan"}
        assert second[:2] == ["2", "0.5"] and "nan" not in second
        assert (out / "displacements.svg").exists()

    def test_all_rows_censored_writes_no_histogram(self, tmp_path):
        # diag(2, 1/2) after a quarter turn squares to -identity, so its
        # windows of even depth are conformal: no gap
        spun = {
            **FAST_SHIFT,
            "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
            "budgets": {"samples": 60, "depth": 30, "n_max": 50},
            "perturbation": {
                "rule": "multiplicative_exp",
                "schedule": {"kind": "explicit", "values": [0.5]},
                "direction": {
                    "kind": "constant",
                    "matrix": [[0.0, -float(np.pi)], [float(np.pi), 0.0]],
                },
            },
        }
        path = tmp_path / "spun.yaml"
        path.write_text(yaml.safe_dump(spun))
        out = tmp_path / "o"
        assert run(["continuity", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "goodset.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[2].split(",")[3] == "nan"
        assert (out / "goodset.svg").exists()
        assert not (out / "displacements.svg").exists()
        # a histogram an earlier run left in the same directory goes too,
        # since it plots another draw
        lived = tmp_path / "lived.yaml"
        lived.write_text(yaml.safe_dump(FAST_SHIFT))
        assert run(["continuity", "--config", str(lived), "--out", str(out)]) == 0
        assert (out / "displacements.svg").exists()
        assert run(["continuity", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "goodset.csv").read_text().splitlines() == lines
        assert not (out / "displacements.svg").exists()

    def test_histogram_plots_the_goodset_draw(self, shift_cfg, tmp_path, monkeypatch):
        reports, plotted = [], []
        experiment = cli.continuity_experiment
        histogram = cli.histogram_svg

        def keep_report(*args, **kwargs):
            reports.append(experiment(*args, **kwargs))
            return reports[-1]

        def keep_values(values, **kwargs):
            plotted.append(values)
            return histogram(values, **kwargs)

        monkeypatch.setattr(cli, "continuity_experiment", keep_report)
        monkeypatch.setattr(cli, "histogram_svg", keep_values)
        assert run(["continuity", "--config", shift_cfg, "--out", str(tmp_path / "o")]) == 0
        (rep,) = reports
        last = [r for r in rep.rows if not r.censored][-1]
        du = rep.last_unstable_distances
        assert np.mean(du) == last.mean_du
        assert np.max(du) == last.max_du
        (values,) = plotted
        assert np.array_equal(values, np.log10(np.maximum(du, 1e-300)))

    def test_continuity_builds_the_base_once(self, shift_cfg, tmp_path, monkeypatch):
        built, families = [], []
        build = cli.build_cocycle
        experiment = cli.continuity_experiment

        def keep_spec(cfg):
            built.append(build(cfg))
            return built[-1]

        def keep_family(family, *args, **kwargs):
            families.append(family)
            return experiment(family, *args, **kwargs)

        monkeypatch.setattr(cli, "build_cocycle", keep_spec)
        monkeypatch.setattr(cli, "continuity_experiment", keep_family)
        assert run(["continuity", "--config", shift_cfg, "--out", str(tmp_path / "o")]) == 0
        (spec,) = built
        (family,) = families
        assert family.base is spec

    def test_env_out_override(self, shift_cfg, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("COCYCLELAB_OUT", str(env_dir))
        assert run(["lyapunov", "--config", shift_cfg]) == 0
        assert (env_dir / "lyapunov.csv").exists()
        flag_dir = tmp_path / "from_flag"
        assert run(["lyapunov", "--config", shift_cfg, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "lyapunov.csv").exists()


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump({**FAST_SHIFT, "colour": 1}))
        assert run(["lyapunov", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case", ["missing", "malformed", "binary", "out_is_a_file"]
    )
    def test_unreadable_input_is_2(self, case, shift_cfg, tmp_path, capsys):
        config, out = shift_cfg, tmp_path / "o"
        if case == "missing":
            config = str(tmp_path / "absent.yaml")
        elif case in ("malformed", "binary"):
            config = str(tmp_path / "broken.yaml")
            Path(config).write_bytes(
                b"base: [unclosed\n" if case == "malformed" else b"\xff\xfe\x00"
            )
        else:
            out.write_text("not a directory")
        assert run(["lyapunov", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        named = str(out) if case == "out_is_a_file" else config
        assert repr(named) in err

    @pytest.mark.parametrize(
        "edit, key",
        [
            (("base", "measure", "weights"), "weights"),
            (("cocycle", "table"), "cocycle.table entry"),
            (("epsilon",), "epsilon"),
        ],
        ids=["weight", "table", "epsilon"],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_number_is_2(self, edit, key, value, tmp_path, capsys):
        data = yaml.safe_load(yaml.safe_dump(FAST_SHIFT))
        if edit == ("epsilon",):
            data["epsilon"] = value
        elif edit[0] == "cocycle":
            data["cocycle"]["table"][0][0][0] = value
        else:
            data["base"]["measure"]["weights"] = [value, 1.0]
        path = tmp_path / "nonfinite.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "o"
        assert run(["lyapunov", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_negative_seed_is_2(self, route, tmp_path, capsys):
        path = tmp_path / "neg.yaml"
        data = FAST_SHIFT if route == "flag" else {**FAST_SHIFT, "seed": -3}
        path.write_text(yaml.safe_dump(data))
        argv = ["lyapunov", "--config", str(path), "--out", str(tmp_path)]
        if route == "flag":
            argv += ["--seed", "-1"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "seed must be nonnegative" in err
        assert not (tmp_path / "lyapunov.csv").exists()

    def test_changed_numpy_seeding_is_1(self, shift_cfg, tmp_path, monkeypatch, capsys):
        from cocyclelab import base

        monkeypatch.setattr(base, "_PCG64_MULT", base._PCG64_MULT + 2)
        assert run(["lyapunov", "--config", shift_cfg, "--out", str(tmp_path)]) == 1
        assert "seeding differs" in capsys.readouterr().err

    def test_no_gap_is_3(self, tmp_path):
        conformal = {
            "base": FAST_SHIFT["base"],
            "cocycle": {
                "kind": "constant",
                "matrix": [[0.0, -1.0], [1.0, 0.0]],
            },
            "budgets": {"samples": 20, "depth": 10, "n_max": 20},
        }
        path = tmp_path / "rot.yaml"
        path.write_text(yaml.safe_dump(conformal))
        out = tmp_path / "o"
        assert run(["oseledets", "--config", str(path), "--out", str(out)]) == 3

    def test_continuity_no_gap_is_3(self, tmp_path):
        # a conformal base has no splitting to perturb; that is not a
        # censored row but a failed run
        conformal = {
            **FAST_SHIFT,
            "cocycle": {"kind": "constant", "matrix": [[0.0, -1.0], [1.0, 0.0]]},
            "budgets": {"samples": 20, "depth": 10, "n_max": 20},
        }
        path = tmp_path / "rot.yaml"
        path.write_text(yaml.safe_dump(conformal))
        out = tmp_path / "o"
        assert run(["continuity", "--config", str(path), "--out", str(out)]) == 3
        assert not (out / "goodset.csv").exists()

    def test_not_bunched_is_1(self, tmp_path, capsys):
        wide = {
            "base": FAST_SHIFT["base"],
            "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
            "budgets": {"samples": 20, "depth": 10, "n_max": 40},
        }
        path = tmp_path / "wide.yaml"
        path.write_text(yaml.safe_dump(wide))
        out = tmp_path / "o"
        assert run(["bunching", "--config", str(path), "--out", str(out)]) == 1
        assert (out / "bunching.csv").exists()
        assert "not_bunched" in capsys.readouterr().out

    def test_bunched_is_0(self, tmp_path, capsys):
        path = str(CONFIG_DIR / "shift_bunched.yaml")
        out = tmp_path / "o"
        assert run(["bunching", "--config", path, "--out", str(out)]) == 0
        assert "verdict = bunched" in capsys.readouterr().out


def run_captured(command, config, out, capsys):
    """Exit code, stdout and every output file's bytes of one run."""
    code = run([command, "--config", config, "--out", str(out)])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, capsys.readouterr().out, files


class TestDeterminism:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("data", [FAST_SHIFT, FAST_TORUS], ids=["shift", "torus"])
    def test_rerun_byte_identical(self, command, data, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        first = run_captured(command, str(path), tmp_path / "a", capsys)
        again = run_captured(command, str(path), tmp_path / "b", capsys)
        assert first[1] and (first[2] or command == "selftest")
        assert first == again


# modules that draw sample points, each through its own imported name
DRAWERS = ("cli", "cocycle", "continuity", "projective", "spectrum")


class _Drawn(Exception):
    pass


@pytest.fixture
def draws(monkeypatch):
    """Record the (count, horizon) of every sample_points call; a draw of
    more than 5000 points is recorded and then stopped."""
    seen = []

    def spy(sys_, count, horizon, seed):
        seen.append((count, horizon))
        if count > 5000:
            raise _Drawn
        return sample_points(sys_, count, horizon, seed)

    for name in DRAWERS:
        monkeypatch.setattr(
            importlib.import_module(f"cocyclelab.{name}"), "sample_points", spy
        )
    return seen


class TestWindows:
    """Each study's shift window is how far it walks from the sample point
    + the spec's symbol depth; shift_gapped has symbol depth 1, depth 40,
    n_max 400 and 2000 samples."""

    def test_every_drawer_is_spied(self):
        for info in pkgutil.iter_modules(cocyclelab.__path__):
            mod = importlib.import_module(f"cocyclelab.{info.name}")
            if info.name not in ("base", *DRAWERS):
                assert not hasattr(mod, "sample_points"), info.name

    @pytest.mark.parametrize(
        "command, windows",
        [
            ("lyapunov", [(2000, 401)]),
            ("oseledets", [(2000, 43)]),
            ("projective", [(2000, 43)]),
            ("bunching", [(64, 61)]),
            ("continuity", [(2000, 403)]),
            ("selftest", [(20, 25), (50, 201), (100, 43)]),
        ],
    )
    def test_shipped_windows(self, command, windows, draws, tmp_path):
        config = str(CONFIG_DIR / "shift_gapped.yaml")
        assert run([command, "--config", config, "--out", str(tmp_path)]) == 0
        assert draws == windows

    def test_acceptance_size_window(self, draws, tmp_path):
        data = yaml.safe_load((CONFIG_DIR / "shift_gapped.yaml").read_text())
        data["budgets"]["samples"] = 10_000
        path = tmp_path / "ac8.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(_Drawn):
            run(["continuity", "--config", str(path), "--out", str(tmp_path)])
        assert draws == [(10_000, 403)]


class TestRemovedKeys:
    @pytest.mark.parametrize(
        "section, key",
        [("budgets", "horizon"), ("base", "local_scale"), ("base", "bracket_scale")],
    )
    @pytest.mark.parametrize("base", [FAST_SHIFT, FAST_TORUS], ids=["shift", "torus"])
    def test_exit_2_names_the_key(self, base, section, key, tmp_path, capsys):
        data = {**base, section: {**base[section], key: 500}}
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump(data))
        assert run(["lyapunov", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {section} has unknown keys ['{key}']" in err


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name", ["shift_gapped.yaml", "torus_pointwise.yaml", "shift_bunched.yaml"]
    )
    def test_configs_load(self, name):
        from cocyclelab.config import load_config

        cfg = load_config(str(CONFIG_DIR / name))
        assert cfg.samples >= 100
