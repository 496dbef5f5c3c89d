"""Regenerate the committed reference CSVs the output checks compare against.

    python3 perfbench/make_reference.py

Run from the root of a checkout, only when the program's outputs are meant
to change; a benchmark run never writes references.  Small CSVs are kept for
REFERENCE_SEEDS, the large per-sample CSVs of lab_sweep for seed 0 only.
"""

from __future__ import annotations

import gzip
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEEDS = range(11)
LARGE = ("oseledets.csv", "projective.csv")


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    shipped = workloads.read_shipped(root)
    for workload in workloads.WORKLOADS:
        for seed in REFERENCE_SEEDS:
            p = workloads.plan(workload, seed, shipped)
            tmp = tempfile.mkdtemp(dir=root, prefix=".perfbench_ref_")
            try:
                paths = workloads.write_configs(p, tmp)
                for call, out_dir, rc in workloads.run_calls(p, paths, os.path.join(tmp, "out")):
                    if rc != 0:
                        raise SystemExit(f"{workload} seed {seed}: {call} exited {rc}")
                    for filename in checks.CSV_OF[call.command]:
                        if filename in LARGE and seed != 0:
                            continue
                        _store(
                            os.path.join(out_dir, filename),
                            checks.reference_path(workload, seed, call.config, filename),
                        )
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            print(f"{workload} seed {seed}: done", flush=True)
    return 0


def _store(src: str, dest: str) -> None:
    os.makedirs(os.path.dirname(dest), exist_ok=True)
    with open(src, "rb") as fh:
        data = fh.read()
    with open(dest, "wb") as raw:
        # mtime=0 keeps the archive bytes a function of the CSV alone
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
            gz.write(data)


if __name__ == "__main__":
    raise SystemExit(main())
