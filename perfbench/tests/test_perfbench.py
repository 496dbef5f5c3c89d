"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import inspect
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import checks
import probes
import run
import workloads
from spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def shipped():
    return workloads.read_shipped(ROOT)


def _run_plan(p, directory, tracer=None):
    """Run a plan's CLI calls into ``directory``; returns {relative path: bytes}."""
    paths = workloads.write_configs(p, os.path.join(directory, "configs"))
    with tracer if tracer is not None else contextlib.nullcontext():
        done = workloads.run_calls(p, paths, os.path.join(directory, "out"))
    assert [rc for _, _, rc in done] == [0] * len(p.calls)
    outputs = {}
    for dirpath, _, files in os.walk(os.path.join(directory, "out")):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                outputs[os.path.relpath(path, directory)] = fh.read()
    return outputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_a_pure_function_of_the_seed(workload, shipped, tmp_path):
    a, b = workloads.plan(workload, 7, shipped), workloads.plan(workload, 7, shipped)
    assert a == b
    pa = workloads.write_configs(a, str(tmp_path / "a"))
    pb = workloads.write_configs(b, str(tmp_path / "b"))
    for name in pa:
        with open(pa[name], "rb") as fa, open(pb[name], "rb") as fb:
            assert fa.read() == fb.read()
    other = workloads.plan(workload, 8, shipped)
    assert other.calls == a.calls
    for name, cfg in other.configs.items():
        assert cfg["seed"] == 8 and a.configs[name]["seed"] == 7
        assert {**cfg, "seed": 7} == a.configs[name]
    # generating plans does not touch the shipped configs
    assert shipped == workloads.read_shipped(ROOT)


def test_nominal_counts_are_fixed_from_the_inputs(shipped):
    assert workloads.plan("shift_coupled", 3, shipped).nominal_sample_steps == 64_000_000
    assert workloads.plan("torus_coupled", 3, shipped).nominal_sample_steps == 10_880_000


def _goodset_case(tmp_path, text):
    out = tmp_path / "out"
    out.mkdir(parents=True)
    (out / "goodset.csv").write_text(text)
    for svg in checks.SVG_OF["continuity"]:
        (out / svg).write_text('<svg xmlns="http://www.w3.org/2000/svg">\n</svg>\n')
    return str(out)


def _reference_text(workload, seed, config, filename):
    with gzip.open(checks.reference_path(workload, seed, config, filename), "rt") as fh:
        return fh.read()


def test_reference_passes_and_a_corrupted_cell_fails(shipped, tmp_path):
    p = workloads.plan("shift_coupled", 0, shipped)
    cfg = p.configs["shift_gapped"]
    text = _reference_text("shift_coupled", 0, "shift_gapped", "goodset.csv")
    args = ("shift_coupled", 0, "continuity", "shift_gapped", cfg)

    problems, dev = checks.check_call(*args, _goodset_case(tmp_path / "ok", text), 0, "")
    assert problems == [] and dev == 0.0

    lines = text.split("\n")
    cells = lines[4].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-9))  # holder_dist of row k=3
    lines[4] = ",".join(cells)
    corrupted = "\n".join(lines)
    problems, dev = checks.check_call(*args, _goodset_case(tmp_path / "bad", corrupted), 0, "")
    assert dev > checks.MAX_REL_DEV and any("deviates" in p for p in problems)

    # an invariant catches a broken row even without a reference
    cells = lines[5].split(",")
    cells[4] = "2.0"  # ci_lo above g_hat
    lines[5] = ",".join(cells)
    problems, dev = checks.check_call(
        "shift_coupled", 999, "continuity", "shift_gapped", cfg,
        _goodset_case(tmp_path / "inv", "\n".join(lines).replace("seed=0", "seed=999")), 0, "",
    )
    assert dev is None and any("ci_lo <= g_hat" in p for p in problems)


def test_selftest_and_exit_code_checks():
    cfg = {"budgets": {}}
    ok = "[ok] a: x\n[ok] b: y\n[ok] c: z\nselftest: 3/3 checks passed\n"
    assert checks.check_call("lab_sweep", 0, "selftest", "x", cfg, "", 0, ok) == ([], None)
    bad = ok.replace("[ok] b", "[FAIL] b").replace("3/3", "2/3")
    assert checks.check_call("lab_sweep", 0, "selftest", "x", cfg, "", 1, bad)[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_changes_no_output_byte(workload, shipped, tmp_path):
    """Traced and untraced runs write identical files, and on the coupled
    workloads the traced sample-steps equal the nominal count, which shows
    the tracer saw every scan."""
    p = workloads.plan(workload, 0, shipped)
    plain = _run_plan(p, str(tmp_path / "plain"))
    tracer = Tracer()
    traced = _run_plan(p, str(tmp_path / "traced"), tracer)
    assert plain.keys() == traced.keys() and plain == traced
    assert len(tracer.start) > 0
    if workload != "lab_sweep":
        assert tracer.sample_steps == p.nominal_sample_steps
    # uninstalling restored every binding
    import cocyclelab.continuity as cont
    import cocyclelab.oseledets as ose

    assert cont.unstable_directions is ose.unstable_directions
    assert not hasattr(ose.unstable_directions, "__wrapped__")


def test_speed_sampler_changes_no_output_byte(shipped, tmp_path):
    """The reference passes that interrupt the untraced run leave its outputs
    alone, and the sampler restores the previous SIGALRM handler."""
    p = workloads.plan("lab_sweep", 0, shipped)
    plain = _run_plan(p, str(tmp_path / "plain"))
    before = signal.getsignal(signal.SIGALRM)
    with probes.SpeedSampler() as sampler:
        start = time.monotonic()
        sampled = _run_plan(p, str(tmp_path / "sampled"))
        end = time.monotonic()
    assert plain == sampled
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sampler.took) >= (end - start) / probes.SPEED_TICK_S - 2
    assert sampler.busy == pytest.approx(float(sum(sampler.took)))
    assert sampler.scale(start, end) > 0


def test_self_times_partition_the_root_spans():
    import cocyclelab.mat2 as mat2
    import numpy as np

    tracer = Tracer()
    with tracer:
        x = np.ones(4)
        mat2.opnorm(np.eye(2))
        mat2.expm_batch(x, x, x, x)
    self_s, _ = tracer.self_times()
    t = tracer.span_table()
    roots = t["parent"] < 0
    assert sum(self_s.values()) == pytest.approx(float(np.sum((t["end"] - t["start"])[roots])))
    assert tracer.elems["mat2.expm_batch"] == 4


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


@pytest.mark.parametrize("kernel", sorted(probes.KERNELS))
def test_kernel_counts_were_made_from_the_current_source(kernel):
    """A changed kernel needs its flops and bytes per element counted again
    (and its hash in probes.KERNELS updated)."""
    import cocyclelab.mat2 as mat2

    source = inspect.getsource(getattr(mat2, kernel))
    digest = hashlib.sha256(source.encode()).hexdigest()
    assert digest.startswith(probes.KERNELS[kernel]["source"])


def test_worker_timeout_grows_with_the_run_length():
    lengths = (1.0, 40.0, 150.0, 600.0)
    timeouts = [run.child_timeout(s) for s in lengths]
    assert all(t >= s + 120.0 for s, t in zip(lengths, timeouts))
    assert timeouts == sorted(timeouts) and timeouts[-1] >= 2 * lengths[-1]
