"""Measurements that sit beside the workload: the mat2 kernel sheet, the
thread-scaling probe, the machine sentinel, the machine's speed during the
run and the environment record."""

from __future__ import annotations

import os
import platform
import signal
import statistics
import time
from time import perf_counter

import numpy as np

BLOCK = 1024  # the engine's scan block width
LARGE = 262_144  # 2 MiB per array: 8 to 12 arrays fit in the 105 MB last-level cache
# Computed per element from the kernel source: elementwise numpy operations
# (transcendentals, comparisons and selects count one each), and compulsory
# bytes (float64 inputs read once, outputs written once; temporaries ignored).
# "source" is the start of the sha256 of the counted source; the tests fail
# when a kernel changes, so that its counts are redone with it.
KERNELS = {
    "opnorm_batch": {"inputs": 4, "outputs": 1, "flops": 19, "source": "76440a1e37d1dde9"},
    "matmul_batch": {"inputs": 8, "outputs": 4, "flops": 12, "source": "793ae6d06ee86beb"},
    "expm_batch": {"inputs": 4, "outputs": 4, "flops": 49, "source": "0ca015d04d3df206"},
}
_ELEMS_PER_TIMING = 1 << 20


def kernel_sheet(mat2) -> dict:
    """ns/elem of each batched kernel at the block width and at LARGE."""
    rng = np.random.default_rng(0)
    out = {}
    for name, k in KERNELS.items():
        fn = getattr(mat2, name)
        for size in (BLOCK, LARGE):
            # small entries keep expm on its trig/hyperbolic branches as in
            # the perturbation families
            args = list(0.1 * rng.standard_normal((k["inputs"], size)))
            reps = _ELEMS_PER_TIMING // size
            times = []
            for _ in range(3):
                t0 = perf_counter()
                for _ in range(reps):
                    fn(*args)
                times.append((perf_counter() - t0) / (reps * size) * 1e9)
            suffix = "" if size == BLOCK else f"_{size}"
            out[f"mat2.{name}.ns_per_elem{suffix}"] = (statistics.median(times), "ns")
        nbytes = 8 * (k["inputs"] + k["outputs"])
        out[f"mat2.{name}.flops_per_elem"] = (k["flops"], "flop")
        out[f"mat2.{name}.bytes_per_elem"] = (nbytes, "B")
        out[f"mat2.{name}.flops_per_byte"] = (k["flops"] / nbytes, "flop/B")
    return out


def t2_speedup(lyapunov_exponents, spec, sys_, points) -> float:
    """lyapunov_exponents at threads=1 over threads=2 on one draw.  The
    window is 100 steps, a quarter of the workload's, to keep the probe
    to a few seconds; blocks split the samples, not the window, so the
    split is the same as the workload's."""
    times = {}
    for threads in (1, 2):
        t0 = perf_counter()
        lyapunov_exponents(spec, sys_, n=100, points=points, threads=threads)
        times[threads] = perf_counter() - t0
    return times[1] / times[2]


def sentinel_s(repeats: int = 5) -> float:
    """A fixed pure-numpy loop; when it moves and the code did not, the
    machine did."""
    times = []
    for _ in range(repeats):
        x = np.linspace(0.0, 1.0, 1 << 15)
        t0 = perf_counter()
        for _ in range(300):
            x = np.sqrt(x * x + 0.25) - 0.2
        times.append(perf_counter() - t0)
    return statistics.median(times)


# The machine's speed.  On a shared VM the CPU's speed drifts by up to 1.5x
# for minutes at a time, and what the program feels of it is only seen on its
# own CPU while it runs.  So a timer interrupts the untraced run every
# SPEED_TICK_S and times one reference pass there; a timing's scale is
# REFERENCE_PASS_S over the mean pass time while it was taken, and the timing
# times its scale is in seconds at the reference speed.  The pass is a fixed
# scan like the engine's (a table gather, a batched 2x2 product and a
# normalisation per step over one block), so it slows down as the program does.
SPEED_TICK_S = 0.2
REFERENCE_PASS_S = 0.0035  # about the mean pass inside a run on a 2-vCPU Xeon VM
_PASS_STEPS = 60


def _pass_inputs():
    rng = np.random.default_rng(20150801)
    # 64 matrices R(theta) diag(s1, s2) with singular values in [0.5, 2]
    theta = rng.uniform(0.0, 2.0 * np.pi, 64)
    s1, s2 = rng.uniform(0.5, 2.0, (2, 64))
    c, s = np.cos(theta), np.sin(theta)
    table = np.array([c * s1, -s * s2, s * s1, c * s2])
    return table, rng.integers(0, 64, (_PASS_STEPS, BLOCK))


_TABLE, _SYMBOLS = _pass_inputs()


def reference_pass() -> float:
    """Seconds of one fixed product scan over one block."""
    t0 = perf_counter()
    a, b, c, d = np.ones(BLOCK), np.zeros(BLOCK), np.zeros(BLOCK), np.ones(BLOCK)
    total = np.zeros(BLOCK)
    for sym in _SYMBOLS:
        p, q, r, s = _TABLE[0][sym], _TABLE[1][sym], _TABLE[2][sym], _TABLE[3][sym]
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        norm = np.sqrt(a * a + b * b + c * c + d * d)
        a, b, c, d = a / norm, b / norm, c / norm, d / norm
        total += np.log(norm)
    return perf_counter() - t0


def speed_scale() -> float:
    """The scale of a timing taken just before this call, from five passes."""
    return REFERENCE_PASS_S / statistics.mean(reference_pass() for _ in range(5))


class SpeedSampler:
    """Times one reference pass every SPEED_TICK_S (on SIGALRM) while
    installed, inside whatever the process runs.  ``busy`` is the time the
    passes took, which the caller takes out of its own timings.

    The samples go into preallocated arrays: a float object kept from each
    tick would pin the memory arenas the program's objects share with it
    and raise the process's peak RSS by up to 15 MB, a different amount
    from run to run."""

    def __init__(self):
        self._samples = np.empty((2, 4096))  # time.monotonic() at each pass's end; its seconds
        self._n = 0

    def _tick(self, signum, frame):
        took = reference_pass()
        if self._n == self._samples.shape[1]:
            self._samples = np.concatenate([self._samples, np.empty_like(self._samples)], axis=1)
        self._samples[:, self._n] = time.monotonic(), took
        self._n += 1

    @property
    def ends(self) -> np.ndarray:
        return self._samples[0, : self._n]

    @property
    def took(self) -> np.ndarray:
        return self._samples[1, : self._n]

    @property
    def busy(self) -> float:
        return float(self.took.sum())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SPEED_TICK_S, SPEED_TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """The scale of a timing taken in [start, end] (monotonic seconds),
        from the passes that ended in it; every unit of the workloads lasts
        several ticks."""
        inside = (self.ends >= start) & (self.ends <= end)
        return REFERENCE_PASS_S / float(self.took[inside].mean())


def _cache_sizes() -> dict:
    sizes = {}
    root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(root))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(root, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(root, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(root, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
