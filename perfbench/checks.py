"""Output checks for one CLI call: invariants that hold for any seed, and a
cell-by-cell comparison with the committed reference where one exists."""

from __future__ import annotations

import gzip
import math
import os
import re

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
# ROADMAP allows this much where a change reorders arithmetic.
MAX_REL_DEV = 1e-12

CSV_OF = {
    "lyapunov": ("lyapunov.csv",),
    "oseledets": ("oseledets.csv",),
    "bunching": ("bunching.csv",),
    "projective": ("projective.csv",),
    "continuity": ("goodset.csv",),
    "selftest": (),
}
SVG_OF = {"continuity": ("goodset.svg", "displacements.svg")}
COLUMNS = {
    "lyapunov.csv": "lambda_plus,se_plus,lambda_minus,se_minus,gap,gap_sem,has_gap,n,samples",
    "oseledets.csv": "i,angle_u,angle_s,sin_angle_between",
    "bunching.csv": "n,log_b",
    "projective.csv": "kind,angle",
    "goodset.csv": "k,t,holder_dist,g_hat,ci_lo,ci_hi,lp_k,lm_k,mean_du,max_du,mean_ds,max_ds",
}
_PROVENANCE = re.compile(r"^# cocyclelab \S+ config_sha256=[0-9a-f]{64} seed=(\d+)$")


def reference_path(workload: str, seed: int, config: str, filename: str) -> str:
    return os.path.join(REFERENCE_DIR, workload, f"s{seed}", f"{config}.{filename}.gz")


def read_csv(text: str) -> tuple[str, str, list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 2:
        raise ValueError("csv has no header")
    return lines[0], lines[1], [line.split(",") for line in lines[2:]]


def rel_dev(a: str, b: str) -> float:
    """Relative deviation of two cells; inf for a text mismatch."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0
    if x == y:
        return 0.0
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(text: str, ref_text: str) -> float:
    """Largest relative deviation of any cell; inf when the shapes differ."""
    _, head, rows = read_csv(text)
    _, ref_head, ref_rows = read_csv(ref_text)
    if head != ref_head or len(rows) != len(ref_rows):
        return math.inf
    worst = 0.0
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(ref):
            return math.inf
        for a, b in zip(row, ref):
            worst = max(worst, rel_dev(a, b))
    return worst


def _floats(rows, col):
    return [float(r[col]) for r in rows]


def invariants(command: str, filename: str, cfg: dict, text: str, seed: int) -> list[str]:
    """Problems found in one output file; empty when it is sound."""
    problems = []
    prov, head, rows = read_csv(text)
    m = _PROVENANCE.match(prov)
    if not m or int(m.group(1)) != seed:
        problems.append(f"{filename}: bad provenance line {prov!r}")
    if head != COLUMNS[filename]:
        problems.append(f"{filename}: header {head!r}")
        return problems
    width = head.count(",") + 1
    if any(len(r) != width for r in rows):
        return problems + [f"{filename}: ragged rows"]
    b = cfg.get("budgets", {})
    samples, n_max = b.get("samples", 1000), b.get("n_max", 400)

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{filename}: {what}")

    if filename == "goodset.csv":
        count = cfg["perturbation"]["schedule"]["count"]
        need(len(rows) == count, f"{len(rows)} rows for {count} schedule sizes")
        need([int(r[0]) for r in rows] == list(range(1, len(rows) + 1)), "k is not 1..T")
        need(all(float(r[1]) == 2.0 ** -int(r[0]) for r in rows), "t is not 2^-k")
        for r in rows:
            g, lo, hi = float(r[3]), float(r[4]), float(r[5])
            if not math.isnan(g):
                need(0.0 <= lo <= g <= hi <= 1.0, f"row k={r[0]}: not ci_lo <= g_hat <= ci_hi")
    elif filename == "lyapunov.csv":
        need(len(rows) == 1, "not one row")
        if rows:
            r = rows[0]
            need(r[6] == "True", "has_gap is not True")
            need(int(r[7]) == n_max and int(r[8]) == samples, "n or samples differ from the config")
            need(float(r[0]) >= float(r[2]), "lambda_plus < lambda_minus")
    elif filename == "oseledets.csv":
        need(len(rows) == samples, f"{len(rows)} rows for {samples} samples")
        need([int(r[0]) for r in rows] == list(range(len(rows))), "i is not 0..S-1")
        angles = _floats(rows, 1) + _floats(rows, 2)
        need(all(0.0 <= a < math.pi for a in angles), "angle outside [0, pi)")
        need(all(0.0 < s <= 1.0 for s in _floats(rows, 3)), "sin angle outside (0, 1]")
    elif filename == "bunching.csv":
        count = min(n_max, 60)
        need([int(r[0]) for r in rows] == list(range(1, count + 1)), "n is not 1..min(n_max, 60)")
        need(all(v > 0.0 for v in _floats(rows, 1)), "non-positive b_n")
    elif filename == "projective.csv":
        need(len(rows) == 2 * samples, f"{len(rows)} rows for 2 x {samples} samples")
        kinds = [r[0] for r in rows]
        need(kinds == ["unstable"] * samples + ["stable"] * samples, "kinds out of order")
        need(all(0.0 <= a < math.pi for a in _floats(rows, 1)), "angle outside [0, pi)")
    return problems


def output_files(command: str) -> tuple[str, ...]:
    return CSV_OF[command] + SVG_OF.get(command, ())


def check_call(
    workload: str, seed: int, command: str, config: str, cfg: dict,
    out_dir: str, rc: int, stdout: str,
) -> tuple[list[str], float | None]:
    """(problems, largest deviation from a reference or None when no file had one)."""
    problems = [] if rc == 0 else [f"{command} on {config}: exit code {rc}"]
    worst = None
    if command == "selftest":
        oks = [line for line in stdout.splitlines() if line.startswith("[ok] ")]
        if len(oks) != 3 or "selftest: 3/3 checks passed" not in stdout:
            problems.append(f"selftest on {config}: {stdout!r}")
    for svg in SVG_OF.get(command, ()):
        path = os.path.join(out_dir, svg)
        text = ""
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        if "<svg" not in text[:200] or not text.endswith("</svg>\n"):
            problems.append(f"{svg} on {config}: missing or truncated")
    for filename in CSV_OF[command]:
        path = os.path.join(out_dir, filename)
        if not os.path.exists(path):
            problems.append(f"{filename} on {config}: missing")
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            problems += invariants(command, filename, cfg, text, seed)
        except (ValueError, IndexError) as err:
            problems.append(f"{filename} on {config}: unreadable ({err})")
            continue
        ref = reference_path(workload, seed, config, filename)
        if os.path.exists(ref):
            with gzip.open(ref, "rt", encoding="utf-8") as fh:
                dev = compare(text, fh.read())
            worst = dev if worst is None else max(worst, dev)
            if dev > MAX_REL_DEV:
                problems.append(f"{filename} on {config}: deviates {dev:.3g} from the reference")
    return problems, worst
