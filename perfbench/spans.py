"""Span recorder and call wrappers for the traced benchmark run.

The wrappers replace public names of the ``wrkhs`` modules (the kernel Gram
methods and the names that ``regression``, ``online``, ``synthetic`` and
``cli`` import) for the duration of :func:`installed` only, so the untraced
runs execute the unmodified program. Each wrapped call records one span:
name, start, end, parent span and op id, plus a few attributes computed from
argument shapes. Spans stay in memory until the run writes them out.

Every per-layer metric is derived from the spans in :func:`layer_metrics`.
Metrics marked "computed" are counts derived from argument shapes and call
structure; they do not depend on timing and must repeat exactly. The
attributes are computed inside ``trace.bookkeeping`` spans; every timed
metric leaves those out.
"""

from __future__ import annotations

import json
import statistics
import time
import zlib
from contextlib import contextmanager

import numpy as np

from wrkhs import cli, kernels, online, regression, synthetic

# name -> (unit, computed). Every workload reports every name; a layer the
# workload does not use reports 0.
LAYER_METRICS = {
    "kernels.gram.calls": ("count", True),
    "kernels.pseudo_gram.calls": ("count", True),
    "kernels.gram.self_s": ("s", False),
    "kernels.pseudo_gram.self_s": ("s", False),
    "kernels.entries": ("count", True),
    "kernels.distinct_share": ("ratio", True),
    "core.hermitian_solve.calls": ("count", True),
    "core.hermitian_solve.self_s": ("s", False),
    "core.solve.max_dim": ("count", True),
    "core.solve.flops_computed": ("flop", True),
    "core.solve.bytes_computed": ("B", True),
    "regression.fit.self_s": ("s", False),
    "regression.predict.self_s": ("s", False),
    "regression.predict.rows": ("count", True),
    "online.observe.calls": ("count", True),
    "online.observe_fill.p50_ms": ("ms", False),
    "online.observe_full.p50_ms": ("ms", False),
    "online.observe_full.p99_ms": ("ms", False),
    "online.observe_check.p50_ms": ("ms", False),
    "online.evictions": ("count", True),
    "online.inverse_residual_max": ("1", False),
    "channel.generate.self_s": ("s", False),
    "channel.trial.p50_s": ("s", False),
    "channel.pool_speedup": ("ratio", False),
    "synthetic.run.self_s": ("s", False),
    "cli.read_csv.self_s": ("s", False),
    "cli.self_s": ("s", False),
    "cli.bytes_written": ("B", True),
    "cli.exp1_s": ("s", False),
    "cli.exp2_s": ("s", False),
    "cli.fit_s": ("s", False),
    "cli.predict_s": ("s", False),
    "cli.equalization_s": ("s", False),
    "trace.overhead_share": ("ratio", False),
}

BOOKKEEPING = "trace.bookkeeping"

# Kernel families that evaluate their Gaussians directly; the block-composed
# families call these for their part kernels.
LEAF_KERNELS = (kernels.RealGaussian, kernels.ComplexGaussian, kernels.IndependentGaussian)


class Recorder:
    """In-memory spans of one traced op, single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = 0
        self.residuals: list[float] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else -1,
            "op": self.op,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def self_times(self) -> list[float]:
        """Duration of each span minus the part its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] >= 0:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s["start"]
            for a, b in sorted(children.get(i, ())):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append(s["end"] - s["start"] - covered)
        return out

    def net_durations(self) -> list[float]:
        """Duration of each span minus the bookkeeping spans below it."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["name"] == BOOKKEEPING:
                parent = s["parent"]
                while parent >= 0:
                    out[parent] -= s["end"] - s["start"]
                    parent = self.spans[parent]["parent"]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}, sort_keys=True) + "\n")


def _inputs(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=np.complex128))


def _digest(a: np.ndarray) -> str:
    return f"{a.shape}:{zlib.crc32(np.ascontiguousarray(a)):08x}"


def _wrap(rec: Recorder, name: str, fn, attrs=None):
    def traced(*args, **kwargs):
        extra = {}
        if attrs is not None:
            with rec.span(BOOKKEEPING):
                extra = attrs(*args, **kwargs)
        with rec.span(name, **extra):
            return fn(*args, **kwargs)

    return traced


def _gram_attrs(spec, x, z=None):
    if not isinstance(spec, LEAF_KERNELS):
        return {}
    xa = _inputs(x)
    za = xa if z is None else _inputs(z)
    return {
        "rows": xa.shape[0],
        "cols": za.shape[0],
        "key": f"{spec!r}|{_digest(xa)}|{_digest(za)}",
    }


def _solve_attrs(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.shape[0]
    k = 1 if b.ndim == 1 else b.shape[1]
    if not np.iscomplexobj(a) and np.iscomplexobj(b):
        k *= 2  # a real system with a complex right-hand side solves both parts
    return {"n": n, "k": k, "complex": bool(np.iscomplexobj(a)), "itemsize": a.itemsize}


def _predict_attrs(model, x_star):
    return {"rows": _inputs(x_star).shape[0]}


@contextmanager
def installed(rec: Recorder):
    """Route the wrapped names through ``rec`` until the block exits."""
    orig_residual = online.Wrkls.inverse_residual

    def inverse_residual(model):
        value = orig_residual(model)
        rec.residuals.append(value)
        return value

    patches = [
        (kernels.KernelSpec, "gram", "kernels.gram", _gram_attrs),
        (kernels.KernelSpec, "pseudo_gram", "kernels.pseudo_gram", None),
        (regression, "hermitian_solve", "core.hermitian_solve", _solve_attrs),
        (online, "hermitian_solve", "core.hermitian_solve", _solve_attrs),
        (cli, "fit_augmented", "regression.fit", None),
        (cli, "fit_srkhs", "regression.fit", None),
        (synthetic, "fit_augmented", "regression.fit", None),
        (synthetic, "fit_srkhs", "regression.fit", None),
        (cli, "predict", "regression.predict", _predict_attrs),
        (synthetic, "predict", "regression.predict", _predict_attrs),
        (cli, "run_exp1", "synthetic.run", None),
        (cli, "run_exp2", "synthetic.run", None),
        (cli, "read_dataset_csv", "cli.read_csv", None),
    ]
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in patches]
    saved.append((online.Wrkls, "inverse_residual", orig_residual))
    try:
        for obj, attr, name, attrs in patches:
            setattr(obj, attr, _wrap(rec, name, getattr(obj, attr), attrs))
        online.Wrkls.inverse_residual = inverse_residual
        yield rec
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


def _quantile(values, q: float) -> float:
    """The q-quantile (0..1) by linear interpolation; 0 without samples."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values), q))


def layer_metrics(rec: Recorder, extra: dict) -> dict:
    """Per-layer metrics of one traced op; ``extra`` supplies the untraced ones."""
    self_s = rec.self_times()
    net_s = rec.net_durations()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(rec.spans):
        by_name.setdefault(s["name"], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_self(name):
        return float(sum(self_s[i] for i in by_name.get(name, ())))

    def spans(name):
        return [rec.spans[i] for i in by_name.get(name, ())]

    leaves = [s for s in spans("kernels.gram") if "key" in s]
    solves = spans("core.hermitian_solve")
    flops = 0
    nbytes = 0
    for s in solves:
        n, k, mult = s["n"], s["k"], 4 if s["complex"] else 1
        flops += mult * (n**3 // 3 + 2 * n * n * k)
        nbytes += s["itemsize"] * (2 * n * n + 2 * n * k)
    observes = spans("online.observe")
    observe_ms = {
        cls: [1e3 * net_s[i] for i in by_name.get("online.observe", ())
              if rec.spans[i]["cls"] == cls]
        for cls in ("fill", "full", "check")
    }
    metrics = {
        "kernels.gram.calls": calls("kernels.gram"),
        "kernels.pseudo_gram.calls": calls("kernels.pseudo_gram"),
        "kernels.gram.self_s": total_self("kernels.gram"),
        "kernels.pseudo_gram.self_s": total_self("kernels.pseudo_gram"),
        "kernels.entries": sum(s["rows"] * s["cols"] for s in leaves),
        "kernels.distinct_share": (
            len({s["key"] for s in leaves}) / len(leaves) if leaves else 0.0
        ),
        "core.hermitian_solve.calls": len(solves),
        "core.hermitian_solve.self_s": total_self("core.hermitian_solve"),
        "core.solve.max_dim": max((s["n"] for s in solves), default=0),
        "core.solve.flops_computed": flops,
        "core.solve.bytes_computed": nbytes,
        "regression.fit.self_s": total_self("regression.fit"),
        "regression.predict.self_s": total_self("regression.predict"),
        "regression.predict.rows": sum(s["rows"] for s in spans("regression.predict")),
        "online.observe.calls": len(observes),
        "online.observe_fill.p50_ms": _quantile(observe_ms["fill"], 0.5),
        "online.observe_full.p50_ms": _quantile(observe_ms["full"], 0.5),
        "online.observe_full.p99_ms": _quantile(observe_ms["full"], 0.99),
        "online.observe_check.p50_ms": _quantile(observe_ms["check"], 0.5),
        "online.evictions": sum(
            s["size_before"] + 1 - s["size_after"] for s in observes
        ),
        "online.inverse_residual_max": max(rec.residuals, default=0.0),
        "channel.generate.self_s": total_self("channel.generate"),
        "synthetic.run.self_s": total_self("synthetic.run"),
        "cli.read_csv.self_s": total_self("cli.read_csv"),
        "cli.self_s": total_self("cli"),
    }
    metrics.update(extra)
    missing = set(LAYER_METRICS) - set(metrics)
    unknown = set(metrics) - set(LAYER_METRICS)
    if missing or unknown:
        raise RuntimeError(f"layer metrics mismatch: missing {missing}, unknown {unknown}")
    return {name: metrics[name] for name in LAYER_METRICS}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
