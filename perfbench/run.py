"""cocyclelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The first form runs one workload and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The second form runs every workload,
each in a fresh process, and prints one table of all metrics.

Each run samples set-up time in SETUP_PROBES fresh interpreters before the
measured run, SETUP_PROBES after it and once more in the worker; the worker
runs the workload's CLI calls in a closed loop (one client,
``--threads 1``) for the given seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Set-up probes on each side of the measured run: set-up time drifts with the
# machine over seconds, so probes spread over the run sample more than one
# phase of it than back-to-back probes do.
SETUP_PROBES = 3
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sample_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child_timeout(seconds: float) -> float:
    """Seconds the measuring worker may take: the run, plus room for one
    unit started near its end (a traced pair of shift_coupled takes up to
    about a minute) and for the probes."""
    return seconds + max(120.0, seconds)


def _worker(root: str, workdir: str, extra: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workdir", workdir, "--spawned-at", repr(time.monotonic())] + extra
    proc = subprocess.run(
        cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
        timeout=timeout, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_probe(root: str, workdir: str) -> float:
    """Set-up seconds of one fresh interpreter, at the reference speed."""
    res = _worker(root, workdir, ["--setup-only"], 60.0)
    return res["setup_s"] * res["setup_scale"]


def percentile_note(values: list[float]) -> str:
    """The highest percentile at or above the median with at least ten
    samples beyond it."""
    n = len(values)
    k = n - 10  # samples at or below the reported one
    if 2 * k < n:
        return f"n={n}, too few for a percentile above the median"
    return f"p{100 * k // n} {sorted(values)[k - 1]:.4f} s, n={n}"


def run_one(root: str, workload: str, seed: int, seconds: float, trace: int):
    """(result JSON, largest reference deviation or None) of one workload run."""
    p = workloads.plan(workload, seed, workloads.read_shipped(root))
    workdir = os.path.join(root, ".perfbench_work", f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        paths = workloads.write_configs(p, os.path.join(workdir, "configs"))
        plan_doc = {
            "workload": workload,
            "seed": seed,
            "configs": p.configs,
            "config_paths": paths,
            "calls": [{"command": c.command, "config": c.config} for c in p.calls],
            "nominal_sample_steps": p.nominal_sample_steps,
        }
        with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(plan_doc, fh)
        setups = [setup_probe(root, workdir) for _ in range(SETUP_PROBES)]
        res = _worker(
            root, workdir, ["--seconds", str(seconds), "--trace", str(trace)],
            child_timeout(seconds),
        )
        setups += [setup_probe(root, workdir) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"] * res["setup_scale"])
    dev = res["max_rel_dev"]
    env = res["env"]
    print(
        f"{workload} seed={seed}: fail_frac {res['failed']}/{res['attempted']} = "
        f"{res['failed'] / res['attempted']:g}; max_rel_dev "
        + ("n/a (no reference for this seed)" if dev is None else f"{dev:g}")
        + f"; env.sentinel_s {res['sentinel_s']:.5f}; nproc {env['nproc']}, "
        f"caches {env['caches']}, python {env['python']}, numpy {env['numpy']}"
    )
    for problem in res["problems"]:
        print(f"  failed check: {problem}")
    if trace:
        metrics = res["per_layer"]
    else:
        # Each unit's time at the reference speed (probes.SpeedSampler): on a
        # shared VM the CPU's speed drifts by up to 1.5x for minutes at a time.
        walls = [w * k for w, k in zip(res["walls"], res["scales"])]
        wall = statistics.median(walls)
        print(
            f"{workload} wall_s: median {wall:.4f} s; {percentile_note(walls)}; units "
            + " ".join(f"{w:.3f}" for w in walls) + "; as measured "
            + " ".join(f"{w:.3f}" for w in res["walls"]) + "; scales "
            + " ".join(f"{k:.3f}" for k in res["scales"])
        )
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "sample_steps_per_s": res["nominal_sample_steps"] / wall,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    out = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return out, dev


def _missing(root: str) -> list[str]:
    need = [os.path.join("src", "cocyclelab", "__init__.py")]
    need += [os.path.join("configs", n + ".yaml") for n in workloads.SHIPPED]
    return [n for n in need if not os.path.isfile(os.path.join(root, n))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    missing = _missing(root)
    if missing:
        print(f"not a cocyclelab checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        if not args.workload:
            return run_all(root, args)
        out, _ = run_one(root, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


def run_all(root: str, args) -> int:
    """Every workload (each in fresh worker processes); one table of all metrics."""
    rows = {}
    for w in workloads.WORKLOADS:
        out, dev = run_one(root, w, args.seed, args.seconds, args.trace)
        m = dict(out["metrics"])
        m["fail_frac"] = {"value": out["failed"] / out["attempted"], "unit": "frac"}
        m["max_rel_dev"] = {"value": float("nan") if dev is None else dev, "unit": "rel"}
        rows[w] = m
    names = list(dict.fromkeys(k for m in rows.values() for k in m))
    print(f"{'metric':44} {'unit':8} " + " ".join(f"{w:>16}" for w in rows))
    for k in names:
        unit = next(m[k]["unit"] for m in rows.values() if k in m)
        cells = " ".join(
            f"{rows[w][k]['value']:16.6g}" if k in rows[w] else f"{'-':>16}" for w in rows
        )
        print(f"{k:44} {unit:8} {cells}")
    return 0 if all(r["fail_frac"]["value"] == 0 for r in rows.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
