"""Command line behavior: outputs, provenance, determinism, exit codes."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from cocyclelab import cli
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


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name", ["shift_gapped.yaml", "torus_pointwise.yaml", "shift_bunched.yaml"]
    )
    def test_configs_load(self, name):
        from cocyclelab.config import load_config

        cfg = load_config(str(CONFIG_DIR / name))
        assert cfg.samples >= 100
