"""Workload definitions: which CLI calls a workload makes, on which configs.

Every config the program receives is generated here from a shipped config
in ``configs/`` with the seed replaced (and, for ``shift_coupled``, the
sample budget raised to the AC8 size).  ``plan`` is a pure function of the
workload name, the seed and the shipped configs' contents.
"""

from __future__ import annotations

import contextlib
import copy
import io
import os
from dataclasses import dataclass

import yaml

SHIPPED = ("shift_gapped", "torus_pointwise", "shift_bunched")
LAB_COMMANDS = ("lyapunov", "oseledets", "bunching", "projective", "selftest")

# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = ("shift_coupled", "torus_coupled", "lab_sweep")


@dataclass(frozen=True)
class Call:
    command: str
    config: str  # key into Plan.configs

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        return [
            self.command, "--config", config_path, "--threads", "1", "--out", out_dir,
        ]


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    configs: dict  # name -> config mapping handed to the program
    calls: tuple[Call, ...]

    @property
    def nominal_sample_steps(self) -> int:
        return sum(nominal_steps(c.command, self.configs[c.config]) for c in self.calls)


def read_shipped(root: str) -> dict:
    """Raw mappings of the shipped configs under ``root/configs``."""
    out = {}
    for name in SHIPPED:
        with open(os.path.join(root, "configs", name + ".yaml"), encoding="utf-8") as fh:
            out[name] = yaml.safe_load(fh)
    return out


def plan(workload: str, seed: int, shipped: dict) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed < 0:
        raise ValueError("seed must be >= 0")

    def derived(name: str, **budgets) -> dict:
        cfg = copy.deepcopy(shipped[name])
        cfg["seed"] = seed
        cfg.setdefault("budgets", {}).update(budgets)
        return cfg

    if workload == "shift_coupled":
        configs = {"shift_gapped": derived("shift_gapped", samples=10_000)}
        calls = (Call("continuity", "shift_gapped"),)
    elif workload == "torus_coupled":
        configs = {"torus_pointwise": derived("torus_pointwise")}
        calls = (Call("continuity", "torus_pointwise"),)
    else:
        configs = {name: derived(name) for name in SHIPPED}
        calls = tuple(Call(cmd, name) for name in SHIPPED for cmd in LAB_COMMANDS)
    return Plan(workload=workload, seed=seed, configs=configs, calls=calls)


def write_configs(p: Plan, directory: str) -> dict:
    """Write each config as YAML; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, cfg in p.configs.items():
        path = os.path.join(directory, name + ".yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=True)
        paths[name] = path
    return paths


def run_calls(p: Plan, paths: dict, out_root: str) -> list[tuple[Call, str, int]]:
    """Run each call of a plan once through ``cocyclelab.cli.main``, each into
    ``out_root/<config name>``, with stdout swallowed; returns (call, output
    directory, exit code) per call.  The CLI is reached through its module,
    so an installed tracer sees the call."""
    from cocyclelab import cli

    done = []
    for call in p.calls:
        out_dir = os.path.join(out_root, call.config)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(call.argv(paths[call.config], out_dir))
        done.append((call, out_dir, rc))
    return done


def nominal_steps(command: str, cfg: dict) -> int:
    """Sample-steps a call is charged with, fixed from its inputs.

    One sample-step is one cocycle step applied to one sample.  The counts
    follow the seed code's studies (a window of ``n_max`` for exponents, two
    windows of ``depth`` for a splitting) and do not change when an
    implementation walks fewer steps, so a leaner walk shows as a higher
    rate.  For ``continuity``: the base exponents and splitting, the same
    for each of the T perturbed members, and the two splittings the CLI
    extracts again for the displacement histogram.
    """
    b = cfg.get("budgets", {})
    s, d, n = b.get("samples", 1000), b.get("depth", 40), b.get("n_max", 400)
    if command == "continuity":
        t = cfg["perturbation"]["schedule"]["count"]
        return s * ((t + 1) * (n + 2 * d) + 4 * d)
    if command == "lyapunov":
        return s * n
    if command == "oseledets":
        return s * 2 * d + s * 2 * d  # splitting, then equivariance at x and f(x)
    if command == "bunching":
        return 64 * min(n, 60)
    if command == "projective":
        return s * 2 * d + 2 * s * d  # graph measures, then two invariance checks
    if command == "selftest":
        return 50 * 200 + 2 * 100 * 40
    raise ValueError(f"no nominal count for {command!r}")
