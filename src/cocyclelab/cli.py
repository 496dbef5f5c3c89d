"""Command line front end.

Every subcommand reads one YAML config, runs one study, writes CSV (and
for the continuity study, SVG) into the output directory, and prints a
short summary.  Output files start with a provenance comment carrying the
package version, the config hash, and the seed, and floats are printed
with %.17g so identical runs produce identical bytes.

Exit codes: 0 success, 1 failed certificate or other lab error, 2 bad
config, 3 no singular value gap, 4 orbit left the sampled window.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .base import sample_points
from .cocycle import bunching_check
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
        "lyapunov": (_cmd_lyapunov, "estimate both Lyapunov exponents"),
        "oseledets": (_cmd_oseledets, "extract the stable/unstable splitting"),
        "bunching": (_cmd_bunching, "certify fiber bunching"),
        "projective": (_cmd_projective, "invariant measures on the circle bundle"),
        "continuity": (_cmd_continuity, "good-set continuity under perturbation"),
        "selftest": (_cmd_selftest, "quick internal consistency checks"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads")
        p.add_argument("--out", default=None, help="override output directory")
        p.set_defaults(func=fn)
    return parser


def _setting(args) -> tuple[Config, object, object, int, str]:
    cfg = load_config(args.config)
    seed = cfg.seed if args.seed is None else _seed(args.seed, "--seed")
    out_dir = args.out or os.environ.get("COCYCLELAB_OUT") or cfg.output_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise ConfigError(
            f"cannot create output directory {out_dir!r}: {err.strerror}"
        ) from err
    sys_ = build_system(cfg)
    spec = build_cocycle(cfg)
    return cfg, sys_, spec, seed, out_dir


def _provenance(cfg: Config, seed: int) -> str:
    return f"# cocyclelab {__version__} config_sha256={config_hash(cfg)} seed={seed}"


def _cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_csv(path: str, cfg: Config, seed: int, columns, rows) -> None:
    lines = [_provenance(cfg, seed), ",".join(columns)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_lyapunov(args) -> int:
    cfg, sys_, spec, seed, out_dir = _setting(args)
    rep = lyapunov_exponents(
        spec, sys_, n=cfg.n_max, samples=cfg.samples, seed=seed, threads=args.threads
    )
    gap = spectral_gap(rep)
    _write_csv(
        os.path.join(out_dir, "lyapunov.csv"),
        cfg,
        seed,
        (
            "lambda_plus", "se_plus", "lambda_minus", "se_minus",
            "gap", "gap_sem", "has_gap", "n", "samples",
        ),
        [
            (
                rep.lambda_plus, rep.se_plus, rep.lambda_minus, rep.se_minus,
                gap.gap, gap.gap_sem, gap.has_gap, rep.n, rep.samples,
            )
        ],
    )
    print(
        f"lambda_plus = {rep.lambda_plus:.6f} (se {rep.se_plus:.2e}), "
        f"lambda_minus = {rep.lambda_minus:.6f} (se {rep.se_minus:.2e}), "
        f"gap = {gap.gap:.6f}, has_gap = {gap.has_gap}"
    )
    return 0


def _cmd_oseledets(args) -> int:
    cfg, sys_, spec, seed, out_dir = _setting(args)
    depth = cfg.depth
    points = sample_points(sys_, cfg.samples, depth + 2 + spec.symbol_depth, seed)
    ux, uy, ok_u = unstable_directions(spec, sys_, points, depth, args.threads)
    sx, sy, ok_s = stable_directions(spec, sys_, points, depth, args.threads)
    if not (ok_u.all() and ok_s.all()):
        raise NoGap("conformal window product during direction extraction")
    angle_u = np.arctan2(uy, ux) % np.pi
    angle_s = np.arctan2(sy, sx) % np.pi
    angle_between = np.abs(ux * sy - uy * sx)
    _write_csv(
        os.path.join(out_dir, "oseledets.csv"),
        cfg,
        seed,
        ("i", "angle_u", "angle_s", "sin_angle_between"),
        [
            (i, angle_u[i], angle_s[i], angle_between[i])
            for i in range(len(points))
        ],
    )
    res = equivariance_residuals(
        spec, sys_, points, (ux, uy, ok_u), depth, "unstable", args.threads
    )
    print(
        f"extracted {len(points)} splittings at depth {depth}; "
        f"min sin(angle) = {angle_between.min():.3e}, "
        f"median equivariance residual = {np.median(res):.3e}"
    )
    return 0


def _cmd_bunching(args) -> int:
    cfg, sys_, spec, seed, out_dir = _setting(args)
    rep = bunching_check(
        spec, sys_, n_max=min(cfg.n_max, 60), x_samples=64, seed=seed
    )
    _write_csv(
        os.path.join(out_dir, "bunching.csv"),
        cfg,
        seed,
        ("n", "log_b"),
        list(zip(rep.ns, rep.b_values)),
    )
    line = f"verdict = {rep.verdict}, theta_hat = {rep.theta_hat:.4f}"
    if rep.kappa_lambda_r is not None:
        line += f", kappa_lambda_r = {rep.kappa_lambda_r:.4f}"
    print(line)
    if rep.verdict != "bunched":
        print("bunching certificate failed", file=sys.stderr)
        return 1
    return 0


def _cmd_projective(args) -> int:
    cfg, sys_, spec, seed, out_dir = _setting(args)
    m_u, m_s = build_invariant_measures(
        spec, sys_, samples=cfg.samples, depth=cfg.depth, seed=seed,
        threads=args.threads,
    )
    mean_phi, sem_phi = integrate_phi(spec, sys_, m_u)
    defect_u = invariance_defect(spec, sys_, m_u, args.threads)
    defect_s = invariance_defect(spec, sys_, m_s, args.threads)
    rows = []
    for measure in (m_u, m_s):
        angles = np.arctan2(measure.vy, measure.vx) % np.pi
        rows += [(measure.kind, a) for a in angles]
    _write_csv(
        os.path.join(out_dir, "projective.csv"), cfg, seed, ("kind", "angle"), rows
    )
    print(
        f"integral of log-expansion = {mean_phi:.6f} (sem {sem_phi:.2e}); "
        f"invariance defect: unstable {defect_u.defect:.3e}, "
        f"stable {defect_s.defect:.3e}"
    )
    return 0


def _cmd_continuity(args) -> int:
    cfg, sys_, spec, seed, out_dir = _setting(args)
    family = build_family(cfg, base=spec)
    rep = continuity_experiment(
        family,
        sys_,
        epsilon=cfg.epsilon,
        samples=cfg.samples,
        depth=cfg.depth,
        n_window=cfg.n_max,
        seed=seed,
        threads=args.threads,
    )
    _write_csv(
        os.path.join(out_dir, "goodset.csv"),
        cfg,
        seed,
        GOODSET_COLUMNS,
        [
            (
                r.k, r.t, r.holder_dist, r.g_hat, r.ci_lo, r.ci_hi,
                r.lambda_plus, r.lambda_minus,
                r.mean_du, r.max_du, r.mean_ds, r.max_ds,
            )
            for r in rep.rows
        ],
    )
    emit_plot(
        os.path.join(out_dir, "goodset.svg"),
        goodset_curve_svg(rep.rows, rep.epsilon),
    )
    live = [r for r in rep.rows if not r.censored]
    histogram = os.path.join(out_dir, "displacements.svg")
    if live:
        emit_plot(
            histogram,
            histogram_svg(
                np.log10(np.maximum(rep.last_unstable_distances, 1e-300)),
                bins=24,
                title=f"log10 unstable displacement at t = {live[-1].t:g}",
            ),
        )
    elif os.path.exists(histogram):
        # a histogram left by an earlier run would describe another draw
        os.remove(histogram)
    censored = sum(1 for r in rep.rows if r.censored)
    final = live[-1].g_hat if live else float("nan")
    print(
        f"ran {len(rep.rows)} perturbation sizes ({censored} censored); "
        f"final good-set fraction = {final:.4f} at epsilon = {rep.epsilon:g}"
    )
    return 0


def _cmd_selftest(args) -> int:
    cfg, sys_, spec, seed, out_dir = _setting(args)
    failures = 0

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        if not ok:
            failures += 1

    from .base import apply_f
    from .cocycle import product

    horizon = 24 + spec.symbol_depth
    points = sample_points(sys_, 20, horizon, seed)
    worst = 0.0
    for i, p in enumerate(points):
        m, n = (i % 5) - 2, ((i * 7) % 9) - 4
        lhs = product(spec, sys_, p, m + n)
        rhs = product(spec, sys_, apply_f(sys_, p, n), m) @ product(spec, sys_, p, n)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    check("cocycle identity", worst < 1e-9, f"max relative defect {worst:.2e}")

    # the exponents against the unit-norm walk, which shares no
    # renormalization, grouping or accumulation with the exponent scan
    points = sample_points(sys_, 50, 200 + spec.symbol_depth, seed)
    ft = finite_time_exponents(spec, sys_, points, 200, args.threads)
    walk = forward_scan(spec, sys_, batch_of(sys_, points), 200)
    plus, rate = walk.log_scale / 200, walk.logdet / 200
    dev = np.max(np.abs([ft.plus - plus, ft.minus - (rate - plus), ft.logdet_rate - rate]))
    check("exponent routes", dev < 1e-9, f"max deviation from the unit-norm walk {dev:.2e}")

    try:
        pts = sample_points(sys_, 100, 40 + 2 + spec.symbol_depth, seed + 1)
        field = unstable_directions(spec, sys_, pts, 40, args.threads)
        res = equivariance_residuals(spec, sys_, pts, field, 40, "unstable", args.threads)
        q99 = float(np.quantile(res, 0.99))
        check("equivariance", q99 < 1e-4, f"99th percentile residual {q99:.2e}")
    except NoGap:
        check("equivariance", False, "no singular value gap at depth 40")

    print(f"selftest: {3 - failures}/3 checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
