"""One benchmark process: set up, run a workload in a closed loop, report.

Started by run.py in a fresh interpreter.  It imports cocyclelab from the
checkout's ``src``, drives ``cocyclelab.cli.main`` with the generated
configs, checks every call's outputs and prints one JSON object.  With
``--setup-only`` it stops after building the workload's objects (and timing
the reference pass that scales the set-up time), which is how run.py samples
set-up time several times per run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    with open(os.path.join(args.workdir, "plan.json"), encoding="utf-8") as fh:
        plan = json.load(fh)
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import cocyclelab
    from cocyclelab import build_cocycle, build_family, build_system, load_config

    if not os.path.abspath(cocyclelab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"cocyclelab imported from {cocyclelab.__file__}, not {src}", file=sys.stderr)
        return 2
    built = {}
    for name, path in plan["config_paths"].items():
        cfg = load_config(path)
        built[name] = (build_system(cfg), build_cocycle(cfg))
        if "perturbation" in cfg.data:
            build_family(cfg)
    setup_s = time.monotonic() - args.spawned_at
    # the benchmark's own modules load after set-up is stamped
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import probes

    setup = {"setup_s": setup_s, "setup_scale": probes.speed_scale()}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    from measure import Runner

    result = Runner(args, plan, built).run()
    result.update(setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
