"""The shipped configs' outputs at seed 0 against the benchmark's committed
references (``perfbench/reference/``), cell by cell within the benchmark's
bound: a change that moves an output bit past the bound fails here."""

from __future__ import annotations

import gzip
import importlib.util
from pathlib import Path

import pytest

from cocyclelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def _load_checks():
    """perfbench's output checks, loaded from their file (read-only)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()

CONFIGS = ("shift_bunched", "shift_gapped", "torus_pointwise")
LAB = ("lyapunov", "oseledets", "bunching", "projective", "selftest")
# (config, command, benchmark workload whose seed-0 references apply)
CALLS = [(cfg, cmd, "lab_sweep") for cfg in CONFIGS for cmd in LAB] + [
    ("torus_pointwise", "continuity", "torus_coupled"),
    ("shift_gapped", "continuity", "shift_coupled"),
]


def config_text(cfg: str, workload: str) -> str:
    """The shipped config, at the AC8 size (10^4 coupled samples) for the
    shift_coupled workload."""
    text = (CONFIG_DIR / f"{cfg}.yaml").read_text(encoding="utf-8")
    assert "\nseed: 0\n" in text
    if workload == "shift_coupled":
        assert text.count("\n  samples: 2000\n") == 1
        text = text.replace("\n  samples: 2000\n", "\n  samples: 10000\n")
    return text


@pytest.mark.parametrize(
    "cfg, command, workload", CALLS, ids=[f"{c}-{m}-{w}" for c, m, w in CALLS]
)
def test_outputs_match_the_references(cfg, command, workload, tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(config_text(cfg, workload), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    for filename in checks.CSV_OF[command]:
        ref = Path(checks.reference_path(workload, 0, cfg, filename))
        with gzip.open(ref, "rt", encoding="utf-8") as fh:
            expected = fh.read()
        got = (out / filename).read_text(encoding="utf-8")
        dev = checks.compare(got, expected)
        assert dev <= checks.MAX_REL_DEV, f"{filename}: relative deviation {dev:.3g}"
