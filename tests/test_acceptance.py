"""Acceptance gate: one test per published capability of the lab.

Each test exercises one end-to-end claim at its stated tolerance and time
budget and prints a single PASS line with the measured numbers; a failure
anywhere leaves the usual pytest diagnostics.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import yaml

from cocyclelab import engine
from cocyclelab.base import apply_f, sample_points
from cocyclelab.cli import main as cli_main
from cocyclelab.cocycle import (
    ConstantCocycle,
    ConstantFactor,
    LocallyConstantCocycle,
    PointwiseCocycle,
    RotationFactor,
    TrigExpr,
    bunching_check,
    product,
)
from cocyclelab.continuity import PerturbationFamily, continuity_experiment
from cocyclelab.oseledets import (
    equivariance_residuals,
    stable_directions,
    unstable_directions,
)
from cocyclelab.projective import build_invariant_measures, integrate_phi
from cocyclelab.spectrum import finite_time_exponents, lyapunov_exponents
from oracles import constant_power, rotation, stepwise_attraction

DIAG2 = np.diag([2.0, 0.5])


def gapped_shift_spec():
    d = np.diag([1.2, 1.0 / 1.2])
    return LocallyConstantCocycle(table=np.array([d, rotation(0.1) @ d]))


def pointwise_torus_spec():
    return PointwiseCocycle(
        factors=(
            RotationFactor(angle=TrigExpr(sin_u=0.15)),
            ConstantFactor(matrix=np.diag([1.5, 1.0 / 1.5])),
        )
    )


class _Clock:
    def __init__(self, budget: float):
        self.budget = budget
        self.start = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def check(self) -> float:
        elapsed = self.elapsed
        assert elapsed < self.budget, f"took {elapsed:.1f}s, budget {self.budget}s"
        return elapsed


def test_ac1_constant_exponents_and_axes(shift2, cat):
    clock = _Clock(1.0)
    spec = ConstantCocycle(matrix=DIAG2)
    log2 = float(np.log(2.0))
    n, depth = 200, 40
    # the closed form, by repeated squaring, at the scans' n
    _, log_scale = constant_power(DIAG2, n)
    for sys_ in (shift2, cat):
        rep = lyapunov_exponents(spec, sys_, n=n, samples=20, seed=0)
        assert rep.lambda_plus == pytest.approx(log2, abs=1e-9)
        assert rep.lambda_minus == pytest.approx(-log2, abs=1e-9)
        assert rep.lambda_plus == pytest.approx(log_scale / n, abs=1e-12)
        # a constant walks the scans, so its window follows the horizon rule
        x = sample_points(sys_, 1, depth + 2 + spec.symbol_depth, seed=1)
        ux, uy, ok_u = unstable_directions(spec, sys_, x, depth=depth)
        sx, sy, ok_s = stable_directions(spec, sys_, x, depth=depth)
        assert ok_u[0] and ok_s[0]
        assert np.arctan2(uy[0], ux[0]) % np.pi == 0.0
        assert np.arctan2(sy[0], sx[0]) % np.pi == np.pi / 2.0
    elapsed = clock.check()
    print(
        f"\n[AC1] PASS ({elapsed:.2f}s): exponents +-log2 to 1e-9 and the closed "
        "form to 1e-12, axes exact, both bases"
    )


def test_ac2_cocycle_identity(shift2, cat):
    clock = _Clock(1.0)
    rng = np.random.default_rng(42)
    cases = [(gapped_shift_spec(), shift2), (pointwise_torus_spec(), cat)]
    worst = 0.0
    for spec, sys_ in cases:
        points = sample_points(sys_, 50, 45, seed=2)
        for p in points:
            m = int(rng.integers(-20, 21))
            n = int(rng.integers(-20, 21))
            lhs = product(spec, sys_, p, m + n)
            rhs = product(spec, sys_, apply_f(sys_, p, n), m) @ product(spec, sys_, p, n)
            err = np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs)))
            worst = max(worst, float(err))
    assert worst <= 1e-9
    elapsed = clock.check()
    print(f"\n[AC2] PASS ({elapsed:.2f}s): 100 random (x, m, n), worst relative defect {worst:.2e}")


def test_ac3_determinant_conservation(shift2, cat):
    # lambda+, lambda- and the log-det rate of the exponent scan against the
    # unit-norm walk on the same points, which sums its logs step by step
    clock = _Clock(5.0)
    devs = []
    n = 400
    for spec, sys_ in ((gapped_shift_spec(), shift2), (pointwise_torus_spec(), cat)):
        points = sample_points(sys_, 100, 401 + spec.symbol_depth, seed=3)
        ft = finite_time_exponents(spec, sys_, points, n=n)
        walk = engine.forward_scan(spec, sys_, engine.batch_of(sys_, points), n)
        for got, want in (
            (ft.plus, walk.log_scale / n),
            (ft.minus, (walk.logdet - walk.log_scale) / n),
            (ft.logdet_rate, walk.logdet / n),
        ):
            devs.append(np.max(np.abs(got - want)))
    # np.max keeps a NaN, which fails the bound
    worst = float(np.max(devs))
    assert worst <= 1e-9
    elapsed = clock.check()
    print(f"\n[AC3] PASS ({elapsed:.2f}s): exponent scan and unit-norm walk agree, worst deviation {worst:.2e}")


def test_ac4_bunching_certificates(shift2):
    clock = _Clock(1.0)
    narrow = ConstantCocycle(matrix=np.diag([2.0 ** 0.25, 2.0 ** -0.25]))
    rep_narrow = bunching_check(narrow, shift2)
    assert rep_narrow.verdict == "bunched"
    assert rep_narrow.kappa_lambda_r == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)
    assert rep_narrow.theta_hat == pytest.approx(np.sqrt(2.0) / 2.0, abs=0.02)
    wide = ConstantCocycle(matrix=DIAG2)
    rep_wide = bunching_check(wide, shift2)
    assert rep_wide.verdict == "not_bunched"
    assert rep_wide.kappa_lambda_r == pytest.approx(2.0, abs=1e-12)
    assert rep_wide.theta_hat == pytest.approx(2.0, abs=0.02)
    elapsed = clock.check()
    print(
        f"\n[AC4] PASS ({elapsed:.2f}s): kappa*lambda^r = 0.707 -> bunched, "
        f"2.0 -> not_bunched, theta_hat within 0.02"
    )


def test_ac5_splitting_equivariance(shift2, cat):
    clock = _Clock(30.0)
    shares = []
    for spec, sys_ in ((gapped_shift_spec(), shift2), (ConstantCocycle(matrix=DIAG2), cat)):
        points = sample_points(sys_, 1000, 63 + spec.symbol_depth, seed=4)
        field = unstable_directions(spec, sys_, points, 60)
        res = equivariance_residuals(spec, sys_, points, field, depth=60, side="unstable")
        shares.append(float(np.mean(res <= 1e-6)))
    assert min(shares) >= 0.99
    elapsed = clock.check()
    print(
        f"\n[AC5] PASS ({elapsed:.2f}s): pushed unstable direction within 1e-6 "
        f"for {min(shares):.1%} of 1000 samples at depth 60"
    )


def test_ac6_projective_integral_recovers_exponent(shift2):
    clock = _Clock(60.0)
    spec = gapped_shift_spec()
    m_u, _ = build_invariant_measures(spec, shift2, samples=10000, depth=40, seed=5)
    mean_phi, sem_phi = integrate_phi(spec, shift2, m_u)
    rep = lyapunov_exponents(spec, shift2, n=2000, samples=200, seed=6)
    combined = float(np.hypot(sem_phi, rep.se_plus))
    diff = abs(mean_phi - rep.lambda_plus)
    assert diff <= 3.0 * combined
    elapsed = clock.check()
    print(
        f"\n[AC6] PASS ({elapsed:.2f}s): |integral - lambda_plus| = {diff:.2e} "
        f"<= 3 x {combined:.2e} with 10^4 atoms"
    )


def test_ac7_projective_attraction(shift2):
    clock = _Clock(30.0)
    spec = gapped_shift_spec()
    medians = {}
    for side in ("unstable", "stable"):
        dist = stepwise_attraction(
            spec, shift2, side, samples=50, grid=16, n=100, depth=40, seed=7
        )
        medians[side] = float(np.median(dist))
    assert max(medians.values()) < 1e-4
    elapsed = clock.check()
    print(
        f"\n[AC7] PASS ({elapsed:.2f}s): median grid-to-section distance after 100 "
        f"steps: unstable {medians['unstable']:.1e}, stable {medians['stable']:.1e}"
    )


def test_ac8_continuity_harness(shift2):
    clock = _Clock(600.0)
    # 0.2x the rotation generator keeps even t = 1/2 inside the sub-gap
    # regime (max rotation 0.1 rad); a full-strength generator wraps the
    # circle at coarse t and the tail fraction is genuinely non-monotone
    # there, which says nothing about the small-t limit under test.
    family = PerturbationFamily.dyadic(
        gapped_shift_spec(),
        ConstantCocycle(
            matrix=np.array([[0.0, -0.2], [0.2, 0.0]]), invertible=False
        ),
        count=12,
    )
    rep = continuity_experiment(
        family, shift2, epsilon=0.1, samples=10000, depth=40, n_window=400, seed=0
    )
    assert not any(r.censored for r in rep.rows)
    assert rep.rows[-1].g_hat >= 0.99
    for prev, nxt in zip(rep.rows, rep.rows[1:]):
        slack = (prev.ci_hi - prev.ci_lo) + (nxt.ci_hi - nxt.ci_lo)
        assert nxt.g_hat >= prev.g_hat - slack
    for row in rep.rows:
        if row.t <= 1e-3:
            assert abs(row.lambda_plus - rep.base_lambda_plus) <= 0.01
            assert abs(row.lambda_minus - rep.base_lambda_minus) <= 0.01
    elapsed = clock.check()
    print(
        f"\n[AC8] PASS ({elapsed:.1f}s): k = 1..12 at 10^4 coupled samples, "
        f"g_hat_12 = {rep.rows[-1].g_hat:.4f}, curve rises within CI slack, "
        f"exponents stable to 0.01 for t <= 1e-3"
    )


def test_ac9_run_determinism(tmp_path):
    clock = _Clock(60.0)
    cfg = {
        "base": {
            "kind": "shift",
            "alphabet_size": 2,
            "measure": {"kind": "bernoulli", "weights": [0.5, 0.5]},
        },
        "cocycle": {
            "kind": "locally_constant",
            "table": [
                [[1.2, 0.0], [0.0, 1 / 1.2]],
                [[1.194004998333631, -0.0831945138723568],
                 [0.11980009997619379, 0.8291701377316882]],
            ],
        },
        "perturbation": {
            "rule": "multiplicative_exp",
            "schedule": {"kind": "dyadic", "count": 4},
            "direction": {"kind": "constant", "matrix": [[0.0, -0.2], [0.2, 0.0]]},
        },
        "budgets": {"samples": 500, "depth": 30, "n_max": 100},
        "epsilon": 0.1,
        "seed": 12,
    }
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(cfg))
    outs = [tmp_path / d for d in ("a", "b", "t8")]
    assert cli_main(["continuity", "--config", str(path), "--out", str(outs[0])]) == 0
    assert cli_main(["continuity", "--config", str(path), "--out", str(outs[1])]) == 0
    assert (
        cli_main(
            ["continuity", "--config", str(path), "--out", str(outs[2]), "--threads", "8"]
        )
        == 0
    )
    first = (outs[0] / "goodset.csv").read_bytes()
    assert (outs[1] / "goodset.csv").read_bytes() == first
    assert (outs[2] / "goodset.csv").read_bytes() == first
    elapsed = clock.check()
    print(
        f"\n[AC9] PASS ({elapsed:.2f}s): same seed and 1-vs-8 threads give "
        f"byte-identical goodset.csv"
    )
