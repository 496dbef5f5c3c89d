"""Command line front end.

Every subcommand runs one pipeline: read the YAML config (which builds the
base system, the cocycle and the perturbation family once), settle the
seed and the output directory, run the subcommand's study, and write what
the study yields in the order it yields it: CSV tables and SVG plots into
the output directory, summary lines to stdout.  A study that fails part
way has then written exactly what came before the failure.  Output files
start with a provenance comment carrying the package version, the config
hash, and the seed, and floats are printed with %.17g so identical runs
produce identical bytes.

Exit codes: 0 success, 1 failed certificate or other lab error, 2 bad
config or unwritable output, 3 no singular value gap, 4 orbit left the
sampled window.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .base import apply_f, sample_points
from .cocycle import bunching_check, product
from .config import (
    Config,
    build_cocycle,
    build_family,
    build_system,
    config_hash,
    load_config,
    _seed,
)
from .continuity import continuity_experiment
from .engine import batch_of, forward_scan
from .errors import (
    CocycleLabError,
    ConfigError,
    HorizonExceeded,
    NoGap,
)
from .oseledets import equivariance_residuals, stable_directions, unstable_directions
from .projective import build_invariant_measures, integrate_phi, invariance_defect
from .spectrum import finite_time_exponents, lyapunov_exponents, spectral_gap
from .svgplot import emit_plot, goodset_curve_svg, histogram_svg

GOODSET_COLUMNS = (
    "k", "t", "holder_dist", "g_hat", "ci_lo", "ci_hi",
    "lp_k", "lm_k", "mean_du", "max_du", "mean_ds", "max_ds",
)
# the ContinuityRow fields of the goodset columns whose names differ
_GOODSET_FIELDS = {"lp_k": "lambda_plus", "lm_k": "lambda_minus"}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = cfg.seed if args.seed is None else _seed(args.seed, "--seed")
        out_dir = args.out or os.environ.get("COCYCLELAB_OUT") or cfg.output_dir
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as err:
            raise ConfigError(
                f"cannot create output directory {out_dir!r}: {err.strerror}"
            ) from err
        study = args.study(cfg, build_system(cfg), build_cocycle(cfg), seed, args.threads)
        return _write(study, out_dir, cfg, seed)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NoGap as err:
        print(f"no gap: {err}", file=sys.stderr)
        return 3
    except HorizonExceeded as err:
        print(f"horizon exceeded: {err}", file=sys.stderr)
        return 4
    except CocycleLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocyclelab",
        description="numerical lab for 2x2 linear cocycles over hyperbolic bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "lyapunov": (_lyapunov, "estimate both Lyapunov exponents"),
        "oseledets": (_oseledets, "extract the stable/unstable splitting"),
        "bunching": (_bunching, "certify fiber bunching"),
        "projective": (_projective, "invariant measures on the circle bundle"),
        "continuity": (_continuity, "good-set continuity under perturbation"),
        "selftest": (_selftest, "quick internal consistency checks"),
    }
    for name, (study, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        p.add_argument("--out", default=None, help="override output directory")
        p.set_defaults(study=study)
    return parser


def _write(study, out_dir: str, cfg: Config, seed: int) -> int:
    """Write each output of the generator ``study`` as it comes: a string is
    a summary line for stdout, a (file name, payload) pair a CSV table (its
    columns by name) or an SVG plot (its text, or None to remove a plot an
    earlier run left, which would describe another draw); ConfigError where
    one cannot be written.  The study returns what it would hand sys.exit:
    None for exit 0, an exit code, or a message for stderr and exit 1."""
    while True:
        try:
            item = next(study)
        except StopIteration as stop:
            result = stop.value
            break
        if isinstance(item, str):
            print(item)
            continue
        name, payload = item
        path = os.path.join(out_dir, name)
        try:
            if name.endswith(".csv"):
                _write_csv(path, cfg, seed, payload)
            elif payload is not None:
                emit_plot(path, payload)
            elif os.path.exists(path):
                os.remove(path)
        except OSError as err:
            raise ConfigError(f"cannot write output {path!r}: {err.strerror}") from err
    if isinstance(result, str):
        print(result, file=sys.stderr)
        return 1
    return result or 0


def _provenance(cfg: Config, seed: int) -> str:
    return f"# cocyclelab {__version__} config_sha256={config_hash(cfg)} seed={seed}"


def _write_csv(path: str, cfg: Config, seed: int, columns: dict) -> None:
    """A CSV table from its columns by name, each formatted as a whole:
    floats at %.17g, integers, booleans and strings by ``str``."""
    cells = []
    for values in columns.values():
        values = np.asarray(values)
        fmt = "{:.17g}".format if values.dtype.kind == "f" else str
        cells.append(map(fmt, values.tolist()))
    lines = [_provenance(cfg, seed), ",".join(columns), *map(",".join, zip(*cells))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _lyapunov(cfg, sys_, spec, seed, threads):
    rep = lyapunov_exponents(
        spec, sys_, n=cfg.n_max, samples=cfg.samples, seed=seed, threads=threads
    )
    gap = spectral_gap(rep)
    yield "lyapunov.csv", {
        "lambda_plus": [rep.lambda_plus], "se_plus": [rep.se_plus],
        "lambda_minus": [rep.lambda_minus], "se_minus": [rep.se_minus],
        "gap": [gap.gap], "gap_sem": [gap.gap_sem], "has_gap": [gap.has_gap],
        "n": [rep.n], "samples": [rep.samples],
    }
    yield (
        f"lambda_plus = {rep.lambda_plus:.6f} (se {rep.se_plus:.2e}), "
        f"lambda_minus = {rep.lambda_minus:.6f} (se {rep.se_minus:.2e}), "
        f"gap = {gap.gap:.6f}, has_gap = {gap.has_gap}"
    )


def _oseledets(cfg, sys_, spec, seed, threads):
    depth = cfg.depth
    points = sample_points(sys_, cfg.samples, depth + 2 + spec.symbol_depth, seed)
    ux, uy, ok_u = unstable_directions(spec, sys_, points, depth, threads)
    sx, sy, ok_s = stable_directions(spec, sys_, points, depth, threads)
    if not (ok_u.all() and ok_s.all()):
        raise NoGap("conformal window product during direction extraction")
    angle_between = np.abs(ux * sy - uy * sx)
    yield "oseledets.csv", {
        "i": np.arange(len(points)),
        "angle_u": np.arctan2(uy, ux) % np.pi,
        "angle_s": np.arctan2(sy, sx) % np.pi,
        "sin_angle_between": angle_between,
    }
    res = equivariance_residuals(
        spec, sys_, points, (ux, uy, ok_u), depth, "unstable", threads
    )
    yield (
        f"extracted {len(points)} splittings at depth {depth}; "
        f"min sin(angle) = {angle_between.min():.3e}, "
        f"median equivariance residual = {np.median(res):.3e}"
    )


def _bunching(cfg, sys_, spec, seed, threads):
    rep = bunching_check(
        spec, sys_, n_max=min(cfg.n_max, 60), x_samples=64, seed=seed
    )
    yield "bunching.csv", {"n": rep.ns, "log_b": rep.b_values}
    line = f"verdict = {rep.verdict}, theta_hat = {rep.theta_hat:.4f}"
    if rep.kappa_lambda_r is not None:
        line += f", kappa_lambda_r = {rep.kappa_lambda_r:.4f}"
    yield line
    if rep.verdict != "bunched":
        return "bunching certificate failed"


def _projective(cfg, sys_, spec, seed, threads):
    m_u, m_s = build_invariant_measures(
        spec, sys_, samples=cfg.samples, depth=cfg.depth, seed=seed, threads=threads,
    )
    mean_phi, sem_phi = integrate_phi(spec, sys_, m_u)
    defect_u = invariance_defect(spec, sys_, m_u, threads)
    defect_s = invariance_defect(spec, sys_, m_s, threads)
    measures = (m_u, m_s)
    yield "projective.csv", {
        "kind": np.repeat([m.kind for m in measures], [len(m.vx) for m in measures]),
        "angle": np.concatenate([np.arctan2(m.vy, m.vx) % np.pi for m in measures]),
    }
    yield (
        f"integral of log-expansion = {mean_phi:.6f} (sem {sem_phi:.2e}); "
        f"invariance defect: unstable {defect_u.defect:.3e}, "
        f"stable {defect_s.defect:.3e}"
    )


def _continuity(cfg, sys_, spec, seed, threads):
    rep = continuity_experiment(
        build_family(cfg), sys_, epsilon=cfg.epsilon, samples=cfg.samples,
        depth=cfg.depth, n_window=cfg.n_max, seed=seed, threads=threads,
    )
    yield "goodset.csv", {
        name: [getattr(r, _GOODSET_FIELDS.get(name, name)) for r in rep.rows]
        for name in GOODSET_COLUMNS
    }
    yield "goodset.svg", goodset_curve_svg(rep.rows, rep.epsilon)
    live = [r for r in rep.rows if not r.censored]
    histogram = None
    if live:
        histogram = histogram_svg(
            np.log10(np.maximum(rep.last_unstable_distances, 1e-300)),
            bins=24,
            title=f"log10 unstable displacement at t = {live[-1].t:g}",
        )
    yield "displacements.svg", histogram
    final = live[-1].g_hat if live else float("nan")
    yield (
        f"ran {len(rep.rows)} perturbation sizes ({len(rep.rows) - len(live)} censored); "
        f"final good-set fraction = {final:.4f} at epsilon = {rep.epsilon:g}"
    )


def _selftest(cfg, sys_, spec, seed, threads):
    passed = []

    def check(name: str, ok: bool, detail: str) -> str:
        passed.append(ok)
        return f"[{'ok' if ok else 'FAIL'}] {name}: {detail}"

    horizon = 24 + spec.symbol_depth
    points = sample_points(sys_, 20, horizon, seed)
    worst = 0.0
    # products past the float range give a non-finite defect, which fails
    with np.errstate(over="ignore", invalid="ignore"):
        for i, p in enumerate(points):
            m, n = (i % 5) - 2, ((i * 7) % 9) - 4
            lhs = product(spec, sys_, p, m + n)
            rhs = product(spec, sys_, apply_f(sys_, p, n), m) @ product(spec, sys_, p, n)
            scale = max(1.0, float(np.max(np.abs(lhs))))
            worst = np.maximum(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    detail = f"max relative defect {worst:.2e}"
    if not np.isfinite(worst):
        detail = "the products overflowed"
    yield check("cocycle identity", worst < 1e-9, detail)

    # the exponents against the unit-norm walk, which shares no
    # renormalization, grouping or accumulation with the exponent scan
    points = sample_points(sys_, 50, 200 + spec.symbol_depth, seed)
    ft = finite_time_exponents(spec, sys_, points, 200, threads)
    walk = forward_scan(spec, sys_, batch_of(sys_, points), 200)
    plus, rate = walk.log_scale / 200, walk.logdet / 200
    dev = np.max(np.abs([ft.plus - plus, ft.minus - (rate - plus), ft.logdet_rate - rate]))
    yield check(
        "exponent routes", dev < 1e-9, f"max deviation from the unit-norm walk {dev:.2e}"
    )

    try:
        pts = sample_points(sys_, 100, 40 + 2 + spec.symbol_depth, seed + 1)
        field = unstable_directions(spec, sys_, pts, 40, threads)
        res = equivariance_residuals(spec, sys_, pts, field, 40, "unstable", threads)
        q99 = float(np.quantile(res, 0.99))
        line = check("equivariance", q99 < 1e-4, f"99th percentile residual {q99:.2e}")
    except NoGap:
        line = check("equivariance", False, "no singular value gap at depth 40")
    yield line
    yield f"selftest: {sum(passed)}/{len(passed)} checks passed"
    return 0 if all(passed) else 1


if __name__ == "__main__":
    raise SystemExit(main())
