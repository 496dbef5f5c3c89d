"""Span tracing at the public call boundaries of cocyclelab's modules.

The tracer wraps, from outside the program, every public function of each
module (plus the spec classes' value hooks and the CLI's CSV writer) and
rebinds the wrapper wherever the package holds the original, so callers
that imported a name with ``from .x import y`` and callers that go through
``module.y`` both hit it.  Each call records one span (name, start, end,
parent) in flat arrays kept in memory; self times are computed when the run
ends.  Counters that bind the call's arguments (scan fingerprints, draws,
extractions) run in a separate ``trace.probe`` span, so their cost lands in
the tracing overhead and not in any layer's self time; element counts of
the kernels and hooks are a few hundred nanoseconds inside the callee's span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "cocyclelab"
MODULES = (
    "mat2", "cocycle", "base", "engine", "spectrum", "oseledets",
    "projective", "continuity", "config", "svgplot", "cli",
)
# Private names that are still a layer boundary the metrics need.
EXTRA = {"cli": ("_write_csv",)}
HOOKS = ("values_at_symbols", "values_at_coords")
SCANS = ("engine.forward_scan", "engine.backward_scan", "engine.forward_record")
EXTRACTORS = ("oseledets.unstable_directions", "oseledets.stable_directions")
PROBE = "trace.probe"
_FP_SPAN = 32  # symbols on each side of the window centre used as a point's fingerprint


class Tracer:
    def __init__(self, base_specs: tuple = ()):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._base_reprs = {repr(s) for s in base_specs}
        # counters
        self.elems: dict[str, int] = {}
        self.sample_steps = 0
        self.base_extractions = 0
        self.points_drawn = 0
        self._draws: dict[tuple, int] = {}  # (system, horizon, seed) -> largest count
        self._walks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._coeff = np.random.default_rng(12345).integers(
            1, 2**62, size=2 * _FP_SPAN + 1, dtype=np.int64
        )

    # -- recording ----------------------------------------------------------

    def _id(self, qualname: str) -> int:
        if qualname not in self._index:
            self._index[qualname] = len(self.names)
            self.names.append(qualname)
        return self._index[qualname]

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.name.append(idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    def wrap(self, qualname: str, fn, probe=None, count=None):
        """Wrap fn in a span.  ``probe(bound_arguments)`` runs first in its own
        span; ``count(args)`` is a cheap element count taken inside the span."""
        idx = self._id(qualname)
        probe_idx = self._id(PROBE)
        sig = inspect.signature(fn) if probe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                pid = self._open(probe_idx)
                t0 = perf_counter()
                try:
                    probe(sig.bind(*args, **kwargs).arguments)
                finally:
                    self._close(pid, t0, perf_counter())
            sid = self._open(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if count is not None:
                    count(args)
                self._close(sid, t0, perf_counter())

        return wrapper

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        every = [importlib.import_module(PACKAGE)] + list(mods.values())
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") or attr in EXTRA.get(short, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    qual = f"{short}.{attr}"
                    wrapped = self.wrap(
                        qual, obj, self._probe_for(qual), self._counter_for(qual)
                    )
                    for holder in every:
                        for name, val in list(vars(holder).items()):
                            if val is obj:
                                self._patched.append((holder, name, obj))
                                setattr(holder, name, wrapped)
        for cls in vars(mods["cocycle"]).values():
            if not (inspect.isclass(cls) and cls.__module__ == mods["cocycle"].__name__):
                continue
            if cls.__name__.startswith("_"):
                continue
            for hook in HOOKS:
                if hook in vars(cls):
                    orig = vars(cls)[hook]
                    qual = f"cocycle.{hook}"
                    self._patched.append((cls, hook, orig))
                    setattr(cls, hook, self.wrap(qual, orig, count=self._count_rows(qual)))

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._patched):
            setattr(holder, name, orig)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- probes (counters read from call arguments) -------------------------

    def _probe_for(self, qual: str):
        if qual in SCANS:
            return functools.partial(self._count_scan, backward=qual == "engine.backward_scan")
        if qual in EXTRACTORS:
            return self._count_extraction
        if qual == "base.sample_points":
            return self._count_draw
        return None

    def _counter_for(self, qual: str):
        if not (qual.startswith("mat2.") and qual.endswith("_batch")):
            return None

        def count(args):
            if args:
                self.elems[qual] = self.elems.get(qual, 0) + int(np.size(args[0]))
        return count

    def _count_rows(self, qual):
        own = self._id(qual)

        def count(args):
            # the span being closed is on top; a hook called from the same
            # hook (a perturbed spec evaluating its parts) adds no elements
            caller = self._stack[-2] if len(self._stack) > 1 else -1
            if caller < 0 or self.name[caller] != own:
                self.elems[qual] = self.elems.get(qual, 0) + int(np.shape(args[1])[0])
        return count

    def _count_scan(self, a, backward: bool):
        batch, n = a["batch"], int(a["n"])
        self.sample_steps += batch.size * n
        if hasattr(batch, "windows"):
            h = batch.horizon
            w = min(h, _FP_SPAN)
            centre = batch.windows[:, h - w: h + w + 1].astype(np.int64)
            fp = centre @ self._coeff[: centre.shape[1]] + h
            origin = batch.offsets.copy()
        else:
            bits = np.ascontiguousarray(batch.coords).view(np.int64)
            fp = bits[:, 0] * 1_000_003 + bits[:, 1]
            origin = np.zeros(batch.size, dtype=np.int64)
        lo = origin - n if backward else origin
        self._walks.append((fp, lo, lo + n))

    def _count_extraction(self, a):
        # a splitting is one unstable plus one stable extraction
        if repr(a["a_spec"]) in self._base_reprs:
            self.base_extractions += 0.5

    def _count_draw(self, a):
        sys_, count = a["sys"], int(a["count"])
        shift = hasattr(sys_, "alphabet_size")
        key = (repr(sys_), int(a["horizon"]) if shift else 0, int(a["seed"]))
        self._draws[key] = max(self._draws.get(key, 0), count)
        self.points_drawn += count

    # -- results ------------------------------------------------------------

    def span_table(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def self_times(self) -> tuple[dict, dict]:
        """(self seconds, inclusive seconds of outermost same-name spans) by name."""
        t = self.span_table()
        dur = t["end"] - t["start"]
        has_parent = t["parent"] >= 0
        child = np.bincount(
            t["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = dur - child
        k = len(self.names)
        self_by = np.bincount(t["name"], weights=own, minlength=k)
        parent_name = np.where(has_parent, t["name"][np.maximum(t["parent"], 0)], -1)
        outer = parent_name != t["name"]
        incl_by = np.bincount(t["name"][outer], weights=dur[outer], minlength=k)
        return (
            {n: float(self_by[i]) for i, n in enumerate(self.names)},
            {n: float(incl_by[i]) for i, n in enumerate(self.names)},
        )

    def distinct_points(self) -> int:
        return sum(self._draws.values())

    def rewalk(self) -> tuple[int, int]:
        """(sample-steps walked, distinct (start point, orbit position) pairs)."""
        if not self._walks:
            return 0, 0
        fp = np.concatenate([w[0] for w in self._walks])
        lo = np.concatenate([w[1] for w in self._walks])
        hi = np.concatenate([w[2] for w in self._walks])
        walked = int(np.sum(hi - lo))
        triples = np.unique(np.stack([fp, lo, hi], axis=1), axis=0)  # sorted by fp, lo
        distinct = 0
        cur_fp, cur_hi = None, None
        for f, a, b in triples.tolist():
            if f != cur_fp:
                cur_fp, cur_hi = f, a
            a = max(a, cur_hi)
            if b > a:
                distinct += b - a
                cur_hi = b
        return walked, distinct
