"""The worker's measuring half: the closed loop, the output checks and the
per-layer metrics of the traced run."""

from __future__ import annotations

import contextlib
import io
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import cocyclelab
import probes
import workloads
from checks import check_call, output_files
from cocyclelab import cli, mat2
from spans import MODULES, PROBE, SCANS, Tracer


class Runner:
    def __init__(self, args, plan: dict, built: dict):
        self.args = args
        self.plan = plan
        self.built = built  # config name -> (system, cocycle) from set-up
        self.out_root = os.path.join(args.workdir, "out")
        self.attempted = 0
        self.failed = 0
        self.worst_dev = None
        self.problems: list[str] = []
        self.output_bytes = 0
        self.units = 0
        self.sampler = None  # a probes.SpeedSampler while the untraced loop runs

    def unit(self) -> float:
        """Run every call of the workload once; returns seconds in the calls."""
        wall = 0.0
        self.units += 1
        for call in self.plan["calls"]:
            cmd, name = call["command"], call["config"]
            out_dir = os.path.join(self.out_root, name)
            argv = workloads.Call(cmd, name).argv(self.plan["config_paths"][name], out_dir)
            buf = io.StringIO()
            busy = self.sampler.busy if self.sampler else 0.0
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)  # through the module, so a tracer sees it
            except Exception:  # a crash is a failed call, not a failed run
                rc = None
                traceback.print_exc(file=sys.stderr)
            wall += time.perf_counter() - t0
            if self.sampler:  # the reference passes that interrupted the call
                wall -= self.sampler.busy - busy
            self.attempted += 1
            if rc is None:
                problems, dev = [f"{cmd} on {name}: exception"], None
            else:
                problems, dev = check_call(
                    self.plan["workload"], self.plan["seed"], cmd, name,
                    self.plan["configs"][name], out_dir, rc, buf.getvalue(),
                )
            if dev is not None:
                self.worst_dev = dev if self.worst_dev is None else max(self.worst_dev, dev)
            if problems:
                self.failed += 1
                self.problems += problems
            for f in output_files(cmd):
                path = os.path.join(out_dir, f)
                if os.path.exists(path):
                    self.output_bytes += os.path.getsize(path)
        return wall

    def run(self) -> dict:
        self.sentinels = [probes.sentinel_s()]
        result = {
            "nominal_sample_steps": self.plan["nominal_sample_steps"],
            "env": probes.environment(),
        }
        if self.args.trace:
            result["per_layer"] = self._traced()
        else:
            with probes.SpeedSampler() as self.sampler:
                result["walls"] = self._loop(self.unit)
            result["scales"] = [self.sampler.scale(*span) for span in self.intervals]
        result.update(
            sentinel_s=statistics.median(self.sentinels),
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems[:20],
            max_rel_dev=self.worst_dev,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        return result

    def _loop(self, step) -> list:
        """Repeat ``step`` while another round is predicted to end within
        the time budget; at least one round.  A sentinel sample precedes
        each round, so the sentinel follows the machine through the run.
        Each round's monotonic start and end go to ``self.intervals``, over
        which the speed sampler gives the round's scale."""
        rounds = []
        self.intervals = []
        t_start = time.perf_counter()
        while True:
            self.sentinels.append(probes.sentinel_s(repeats=1))
            t0 = time.perf_counter()
            m0 = time.monotonic()
            rounds.append(step())
            self.intervals.append((m0, time.monotonic()))
            last = time.perf_counter() - t0
            if time.perf_counter() - t_start + last > self.args.seconds:
                return rounds

    def _traced(self) -> dict:
        """Alternate untraced and traced units, then derive the layer metrics."""
        tracer = Tracer(base_specs=tuple(spec for _, spec in self.built.values()))

        def pair():
            untraced = self.unit()
            with tracer:
                traced = self.unit()
            return untraced, traced

        pairs = self._loop(pair)
        m = layer_metrics(
            tracer,
            traced_units=len(pairs),
            untraced_s=statistics.median(p[0] for p in pairs),
            traced_s=statistics.median(p[1] for p in pairs),
        )
        m["cli.output_bytes"] = (self.output_bytes / self.units, "B")
        m.update(probes.kernel_sheet(mat2))
        m["engine.block_map.t2_speedup"] = (self._t2_speedup(), "ratio")
        m["env.sentinel_s"] = (statistics.median(self.sentinels), "s")
        out_dir = os.path.join(self.args.root, ".perfbench_out", self.plan["workload"])
        os.makedirs(out_dir, exist_ok=True)
        np.savez(os.path.join(out_dir, "spans.npz"), **tracer.span_table())
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

    def _t2_speedup(self) -> float:
        """Thread scaling of lyapunov_exponents on the shift_coupled draw."""
        shipped = workloads.read_shipped(self.args.root)
        p = workloads.plan("shift_coupled", self.plan["seed"], shipped)
        cfg = cocyclelab.normalize_config(p.configs["shift_gapped"])
        sys_, spec = cocyclelab.build_system(cfg), cocyclelab.build_cocycle(cfg)
        horizon = max(cfg.depth, cfg.n_max) + spec.symbol_depth + 2  # as continuity draws
        points = cocyclelab.sample_points(sys_, cfg.samples, horizon, cfg.seed)
        return probes.t2_speedup(cocyclelab.lyapunov_exponents, spec, sys_, points)


def layer_metrics(tracer: Tracer, traced_units: int, untraced_s: float, traced_s: float) -> dict:
    """Per-unit layer metrics from the spans and counters; name -> (value, unit)."""
    self_s, incl_s = tracer.self_times()
    per = 1.0 / traced_units

    def own(*names):
        return sum(self_s.get(n, 0.0) for n in names) * per

    def total(*names):
        return sum(incl_s.get(n, 0.0) for n in names) * per

    def count(n):
        return n * per

    def ns_per_elem(name):
        elems = tracer.elems.get(name, 0)
        return incl_s.get(name, 0.0) / elems * 1e9 if elems else 0.0

    scan_s = total(*SCANS)
    walked, distinct = tracer.rewalk()
    drawn = tracer.points_drawn
    extract = ("oseledets.unstable_directions", "oseledets.stable_directions")
    m = {}
    for k in probes.KERNELS:
        m[f"mat2.{k}.self_s"] = (own(f"mat2.{k}"), "s")
    for hook in ("values_at_symbols", "values_at_coords"):
        m[f"cocycle.{hook}.ns_per_elem"] = (ns_per_elem(f"cocycle.{hook}"), "ns")
        m[f"cocycle.{hook}.elems"] = (count(tracer.elems.get(f"cocycle.{hook}", 0)), "count")
    m["cocycle.holder_distance.self_s"] = (own("cocycle.holder_distance"), "s")
    m["cocycle.holder_distance.total_s"] = (total("cocycle.holder_distance"), "s")
    m["cocycle.bunching_check.self_s"] = (own("cocycle.bunching_check"), "s")
    m["base.sample_points.self_s"] = (own("base.sample_points"), "s")
    m["base.points_sampled"] = (count(drawn), "count")
    m["base.sample_points.distinct_frac"] = (
        tracer.distinct_points() / drawn if drawn else 0.0, "frac")
    m["engine.forward_scan.self_s"] = (own("engine.forward_scan"), "s")
    m["engine.backward_scan.self_s"] = (own("engine.backward_scan"), "s")
    m["engine.values.self_s"] = (own("engine.values"), "s")
    m["engine.sample_steps"] = (count(tracer.sample_steps), "count")
    m["engine.sample_steps_per_s"] = (
        count(tracer.sample_steps) / scan_s if scan_s else 0.0, "1/s")
    m["spectrum.lyapunov_exponents.self_s"] = (own("spectrum.lyapunov_exponents"), "s")
    m["spectrum.lyapunov_exponents.total_s"] = (total("spectrum.lyapunov_exponents"), "s")
    m["oseledets.extract.self_s"] = (own(*extract), "s")
    m["oseledets.extract.total_s"] = (total(*extract), "s")
    m["oseledets.base_extractions"] = (count(tracer.base_extractions), "count")
    m["oseledets.equivariance_residuals.self_s"] = (own("oseledets.equivariance_residuals"), "s")
    m["projective.build_invariant_measures.self_s"] = (
        own("projective.build_invariant_measures"), "s")
    m["projective.invariance_defect.self_s"] = (own("projective.invariance_defect"), "s")
    m["continuity.continuity_experiment.self_s"] = (own("continuity.continuity_experiment"), "s")
    m["continuity.perturb.self_s"] = (own("continuity.perturb"), "s")
    m["continuity.rewalk_ratio"] = (walked / distinct if distinct else 0.0, "ratio")
    m["config.load_config.self_s"] = (own("config.load_config"), "s")
    m["cli.write_self_s"] = (own("cli._write_csv"), "s")
    for mod in MODULES:
        m[f"{mod}.self_s"] = (own(*[n for n in self_s if n.startswith(mod + ".")]), "s")
    work = own(*[n for n in self_s if n != PROBE])
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    m["trace.accounted_frac"] = (work / untraced_s, "frac")
    return m
