"""Command line behavior: outputs, provenance, determinism, exit codes."""

from __future__ import annotations

import importlib
import os
import pkgutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import cocyclelab
from cocyclelab import cli, mat2
from cocyclelab.base import sample_points
from cocyclelab.cli import GOODSET_COLUMNS, main
from cocyclelab.config import load_config
from cocyclelab.errors import NoGap
from oracles import Unproven

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


def with_cocycle(data, **cocycle):
    """``data`` with keys of its cocycle section replaced."""
    return {**data, "cocycle": {**data["cocycle"], **cocycle}}


def with_schedule(data, count):
    """``data`` with a dyadic perturbation schedule of ``count`` sizes."""
    schedule = {"kind": "dyadic", "count": count}
    return {**data, "perturbation": {**data["perturbation"], "schedule": schedule}}


def scaled_back(data):
    """``data`` with its cocycle matrices times 2**30 (the table, the
    constant matrix or the constant factor)."""
    c = data["cocycle"]
    if "table" in c:
        return with_cocycle(data, table=np.ldexp(c["table"], 30).tolist())
    if "matrix" in c:
        return with_cocycle(data, matrix=np.ldexp(c["matrix"], 30).tolist())
    rot, const = c["factors"]
    scaled = {**const, "matrix": np.ldexp(const["matrix"], 30).tolist()}
    return with_cocycle(data, factors=[rot, scaled])


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


    @pytest.mark.parametrize("setting", ["shift", "torus"])
    def test_selftest_fails_on_a_broken_route(
        self, setting, tmp_path, monkeypatch, capsys
    ):
        # the exponent scan forgets the exponent of its first rescaling:
        # the unit-norm walk must disagree, on the word and the step path
        from cocyclelab import engine

        radix_scale = engine._radix_scale
        calls = []

        def dropping(a, b, c, d, exps):
            out = radix_scale(a, b, c, d, exps)
            calls.append(None)
            return exps if len(calls) == 1 else out

        monkeypatch.setattr(engine, "_radix_scale", dropping)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(FAST_SHIFT if setting == "shift" else FAST_TORUS))
        assert run(["selftest", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] exponent routes: " in out
        assert out.count("[ok]") == 2 and "2/3" in out
        assert calls


class TestWriter:
    def test_columns_format_as_the_cell_writer_did(self, tmp_path):
        # each column is formatted as a whole; the bytes are those the
        # earlier cell-by-cell writer produced for the same table
        cfg = load_config(str(CONFIG_DIR / "shift_bunched.yaml"))
        columns = {
            "name": ["a", "b", "c", "d", "e"],
            "flag": [True, np.bool_(False), np.True_, False, True],
            "count": [3, np.int64(-7), 0, np.int32(12), 2**40],
            "value": [0.1, -0.0, float("nan"), float("inf"), 1e-300],
            "wide": np.array([1 / 3, -np.inf, 2.5e17, 5e-324, -1.0]),
        }
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), cfg, 7, columns)
        assert path.read_bytes() == (
            b"# cocyclelab 0.1.0 config_sha256="
            b"545ea77e0a2ffbe9f2c975b3dd1d7308a528a61dc583e5ccf53924062d1610db seed=7\n"
            b"name,flag,count,value,wide\n"
            b"a,True,3,0.10000000000000001,0.33333333333333331\n"
            b"b,False,-7,-0,-inf\n"
            b"c,True,0,nan,2.5e+17\n"
            b"d,False,12,inf,4.9406564584124654e-324\n"
            b"e,True,1099511627776,1e-300,-1\n"
        )


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_torus_exponential_rows_censored(self, tmp_path, capsys):
        # exp(t B) with B = diag(3000, -3000) + the shipped off-diagonal
        # overflows, or loses its determinant to rounding, for t >= 1/128
        direction = {
            **FAST_TORUS["perturbation"]["direction"],
            "e00": {"const": 3000.0},
            "e11": {"const": -3000.0},
        }
        steep = {
            **FAST_TORUS,
            "perturbation": {
                **FAST_TORUS["perturbation"],
                "schedule": {"kind": "dyadic", "count": 10},
                "direction": direction,
            },
            "budgets": {"samples": 50, "depth": 20, "n_max": 40},
        }
        path = tmp_path / "steep.yaml"
        path.write_text(yaml.safe_dump(steep))
        out = tmp_path / "o"
        assert run(["continuity", "--config", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "(7 censored)" in captured.out
        rows = [line.split(",") for line in (out / "goodset.csv").read_text().splitlines()[2:]]
        assert [set(row[2:]) == {"nan"} for row in rows] == [True] * 7 + [False] * 3

    @pytest.mark.filterwarnings("error")
    def test_overflowing_shift_exponential_rows_censored(self, tmp_path, capsys):
        # shift_gapped's direction with a 3000 corner: exp(t B) overflows
        # for t >= 1/64, and the specialized table is not finite
        cfg = yaml.safe_load((CONFIG_DIR / "shift_gapped.yaml").read_text())
        cfg["perturbation"]["direction"]["matrix"] = [[0.0, -0.2], [0.2, 3000.0]]
        cfg["budgets"] = {"samples": 100, "depth": 20, "n_max": 40}
        path = tmp_path / "steep.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "o"
        assert run(["continuity", "--config", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "(6 censored)" in captured.out
        rows = [line.split(",") for line in (out / "goodset.csv").read_text().splitlines()[2:]]
        assert [set(row[2:]) == {"nan"} for row in rows] == [True] * 6 + [False] * 6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sign_changing_torus_determinant_row_censored(self, tmp_path, capsys):
        # A + t diag(0, -1.3533) has a det of both signs at t = 1/2 only;
        # censoring it leaves the other rows bitwise as a family without it
        def goodset(schedule, name):
            cfg = {
                **FAST_TORUS,
                "perturbation": {
                    "rule": "additive",
                    "schedule": schedule,
                    "direction": {
                        "kind": "pointwise_entries", "e11": {"const": -1.3533},
                    },
                },
            }
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            out = tmp_path / name
            assert run(["continuity", "--config", str(path), "--out", str(out)]) == 0
            text = (out / "goodset.csv").read_text().splitlines()[2:]
            return [line.split(",") for line in text], capsys.readouterr()

        rows, captured = goodset({"kind": "dyadic", "count": 3}, "flip")
        assert captured.err == ""
        assert "(1 censored)" in captured.out
        assert rows[0][:2] == ["1", "0.5"] and set(rows[0][2:]) == {"nan"}
        assert all("nan" not in row for row in rows[1:])
        rest, _ = goodset({"kind": "explicit", "values": [0.25, 0.125]}, "rest")
        assert [row[1:] for row in rows[1:]] == [row[1:] for row in rest]

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
        "command, blocked",
        [("lyapunov", "lyapunov.csv"), ("continuity", "goodset.svg")],
        ids=["csv", "svg"],
    )
    def test_unwritable_output_is_2(self, command, blocked, shift_cfg, tmp_path, capsys):
        # a directory where an output file goes: the outputs before it are
        # written, and the run exits 2 naming the path
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        assert run([command, "--config", shift_cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write output ") and "Traceback" not in err
        assert repr(str(out / blocked)) in err
        if command == "continuity":
            assert (out / "goodset.csv").read_text().startswith("# cocyclelab ")

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

    def test_no_gap_is_3(self, tmp_path, capsys):
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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "no gap: conformal window product during direction extraction\n"
        )
        # the output directory is made before the study, which writes nothing
        assert out.is_dir() and not any(out.iterdir())

    def test_no_gap_after_the_table_keeps_the_table(
        self, shift_cfg, tmp_path, monkeypatch, capsys
    ):
        # oseledets.csv is written before the equivariance residuals are
        # measured, so a failure there leaves the table and no summary
        def no_gap(*args, **kwargs):
            raise NoGap("conformal window product while measuring equivariance")

        monkeypatch.setattr(cli, "equivariance_residuals", no_gap)
        out = tmp_path / "o"
        assert run(["oseledets", "--config", shift_cfg, "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("no gap: ")
        assert [p.name for p in out.iterdir()] == ["oseledets.csv"]
        assert len((out / "oseledets.csv").read_text().splitlines()) == 2 + 150

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
        captured = capsys.readouterr()
        assert captured.out == (
            "verdict = not_bunched, theta_hat = 2.0000, kappa_lambda_r = 2.0000\n"
        )
        assert captured.err == "bunching certificate failed\n"
        # the table is written before the verdict fails the run
        assert [p.name for p in out.iterdir()] == ["bunching.csv"]
        lines = (out / "bunching.csv").read_text().splitlines()
        assert lines[1] == "n,log_b" and len(lines) == 2 + 40
        rows = [line.split(",") for line in lines[2:]]
        assert [int(n) for n, _ in rows] == list(range(1, 41))
        # b_n = (2 / 0.5)^n * lambda0^n = 2^n
        b_n = [float(b) for _, b in rows]
        assert np.allclose(b_n, 2.0 ** np.arange(1, 41), rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_b_n_reads_inf(self, tmp_path, capsys):
        # diag(1.189, 2**40): b_n, near 4.6e11**n, passes the float range at n = 27
        steep = {
            "base": FAST_SHIFT["base"],
            "cocycle": {"kind": "constant", "matrix": [[1.189207115002721, 0.0], [0.0, 2.0**40]]},
        }
        path = tmp_path / "steep.yaml"
        path.write_text(yaml.safe_dump(steep))
        out = tmp_path / "o"
        assert run(["bunching", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("verdict = not_bunched, ")
        assert captured.err == "bunching certificate failed\n"
        b_n = np.array([float(line.split(",")[1])
                        for line in (out / "bunching.csv").read_text().splitlines()[2:]])
        assert np.all(np.isfinite(b_n[:26])) and np.all(b_n[26:] == np.inf)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_identity_products_fail_selftest(self, tmp_path, capsys):
        # shift_bunched's matrix times 2**200 passes the regularity rule,
        # but its 6-step plain products overflow
        matrix = np.ldexp(np.diag([1.189207115002721, 0.8408964152537145]), 200)
        data = {"base": FAST_SHIFT["base"],
                "cocycle": {"kind": "constant", "matrix": matrix.tolist()}}
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(data))
        assert run(["selftest", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] cocycle identity: the products overflowed\n" in captured.out
        assert "selftest: 2/3 checks passed" in captured.out
        assert captured.err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "data, key",
        [
            # an alphabet of 0 symbols with explicit weights
            ({**FAST_SHIFT, "base": {**FAST_SHIFT["base"], "alphabet_size": 0}},
             "base.alphabet_size"),
            # a torus matrix entry past exact lattice arithmetic
            ({**FAST_TORUS, "base": {"kind": "torus", "matrix": [[1.0e300, 1], [1, 1]]}},
             "base.matrix"),
            # a constant cocycle whose operator norm overflows
            ({"base": FAST_SHIFT["base"],
              "cocycle": {"kind": "constant", "matrix": [[1.0e300, 0.0], [0.0, 0.84]]}},
             "cocycle.matrix"),
            # a table entry of rank one
            (with_cocycle(FAST_SHIFT, table=[FAST_SHIFT["cocycle"]["table"][0],
                                             [[1.0, 2.0], [2.0, 4.0]]]),
             "cocycle.table"),
            # a table entry of 1e300: sigma2 / sigma1 is 7e-301
            (with_cocycle(FAST_SHIFT, table=[[[1.0e300, 0.0], [0.0, 1 / 1.2]],
                                             FAST_SHIFT["cocycle"]["table"][1]]),
             "cocycle.table"),
            # a torus cocycle's constant factor with an entry of 1e300
            (with_cocycle(FAST_TORUS, factors=[
                FAST_TORUS["cocycle"]["factors"][0],
                {"kind": "constant", "matrix": [[1.0e300, 0.0], [0.0, 1 / 1.5]]},
            ]), "factor.matrix"),
            # shift_bunched's matrix times 2**300: regular in ratio, but its
            # norm's squares of squares overflow
            ({"base": FAST_SHIFT["base"],
              "cocycle": {"kind": "constant", "matrix": np.ldexp(
                  [[1.189207115002721, 0.0], [0.0, 0.8408964152537145]], 300).tolist()}},
             "cocycle.matrix"),
            # dyadic schedules whose sizes would be 2**-k for k up to 2**63,
            # or up to 1075, where 2**-1075 rounds to 0.0: refused before
            # the sizes are built
            *((with_schedule(FAST_SHIFT, count), "schedule.count") for count in (2**63, 1075)),
        ],
        ids=["alphabet_size", "torus_matrix", "constant_matrix", "singular_table",
             "table_entry", "torus_factor", "constant_2**300", "count_2**63", "count_1075"],
    )
    def test_value_out_of_range_is_2(self, command, data, key, tmp_path, capsys):
        path = tmp_path / "big.yaml"
        path.write_text(yaml.safe_dump(data))
        out = tmp_path / "o"
        assert run([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "data",
        [
            with_cocycle(FAST_SHIFT, table=np.ldexp(FAST_SHIFT["cocycle"]["table"], -30).tolist()),
            with_cocycle(FAST_TORUS, factors=[
                FAST_TORUS["cocycle"]["factors"][0],
                {"kind": "constant", "matrix": np.ldexp(np.diag([1.5, 1 / 1.5]), -30).tolist()},
            ]),
            {"base": FAST_SHIFT["base"], "budgets": FAST_SHIFT["budgets"],
             "cocycle": {"kind": "constant",
                         "matrix": np.ldexp(np.diag([1.189207115002721, 0.8408964152537145]), -30).tolist()}},
        ],
        ids=["table", "torus_factor", "constant"],
    )
    def test_scaled_down_config_is_0(self, data, tmp_path, capsys):
        # 2**-30 times a shipped cocycle has |det| near 1e-18 and the same
        # singular value ratio: the same directions, exponents shifted by
        # -30 log 2
        bodies = []
        for name, cfg in (("scaled", data), ("plain", scaled_back(data))):
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            out = tmp_path / name
            for command in ("lyapunov", "oseledets"):
                assert run([command, "--config", str(path), "--out", str(out)]) == 0
            bodies.append((out / "oseledets.csv").read_text().splitlines()[1:])
            lines = (out / "lyapunov.csv").read_text().splitlines()
            bodies.append(float(lines[2].split(",")[0]))
        assert capsys.readouterr().err == ""
        assert bodies[0] == bodies[2]
        assert bodies[1] == pytest.approx(bodies[3] - 30 * np.log(2.0), rel=1e-14)

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

    @pytest.mark.parametrize("command", ["continuity", "lyapunov", "oseledets"])
    def test_a_hidden_proof_changes_no_byte(self, command, tmp_path, capsys, monkeypatch):
        # torus_pointwise's specs are proven regular, so their walks skip
        # the rule; behind a wrapper that hides the proof every step takes it
        data = yaml.safe_load((CONFIG_DIR / "torus_pointwise.yaml").read_text())
        data["budgets"]["samples"] = 300
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        calls = []
        rule = mat2.regular
        monkeypatch.setattr(mat2, "regular", lambda *a, **k: calls.append(1) or rule(*a, **k))
        proven = run_captured(command, str(path), tmp_path / "a", capsys)
        proven_calls = len(calls)

        def hidden(config):
            cfg = load_config(config)
            spec = Unproven(cfg.cocycle)
            return replace(cfg, cocycle=spec, family=replace(cfg.family, base=spec))

        monkeypatch.setattr(cli, "load_config", hidden)
        assert run_captured(command, str(path), tmp_path / "b", capsys) == proven
        # the hidden run tests at least every step of a 40-step direction walk
        assert proven[0] == 0 and len(calls) >= 2 * proven_calls + 40


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
