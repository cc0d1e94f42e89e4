"""One workload process of the wrkhs benchmark; ``run.py`` starts it.

``run.py`` sets the BLAS and OpenMP thread variables to 1 in this process's
environment, so they hold before numpy is imported. The equalization trial
pool gets ``WRKHS_THREADS = min(nproc, trials)`` threads. The process
generates the workload's inputs from the seed, runs one warm-up op, prints
``READY`` (``run.py`` times the set-up up to it), and then, by role:

* ``run``: runs ops back to back (a closed loop, one caller) for the given
  seconds, at least one, and times a fixed host-speed probe (``Probe``)
  before each op and after the last;
* ``trace``: runs untraced ops, then replays one op with the wrappers of
  ``spans.py`` installed and derives the per-layer metrics.

Every op is checked: exit code 0, output files byte-identical to those of
the warm-up op, and the op's headline MSE finite, inside the paper bands
where they apply, and equal to the stored reference for the seed, or, on a
seed without one, inside the range of the stored references widened by
``PLAUSIBLE_WIDEN`` times its width. The process ends by printing
``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    if os.environ.get(_var) != "1":
        sys.exit(f"worker: {_var} must be 1 before numpy is imported (start via run.py)")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402

import wrkhs  # noqa: E402
from wrkhs import channel, online  # noqa: E402
from wrkhs.cli import main as wrkhs_main  # noqa: E402

import spans  # noqa: E402

if Path(wrkhs.__file__).resolve().parent != ROOT / "src" / "wrkhs":
    sys.exit(f"worker: imported wrkhs from {wrkhs.__file__}, not from {ROOT / 'src'}")

# The host-speed probe's fixed input key, and the share of the previous op's
# time it runs for between two ops.
PROBE_KEY = 20161031
PROBE_SHARE = 0.15
# Seeds on which acceptance criteria 4 and 5 assert the synthetic bands.
BAND_SEEDS = range(10)
# Seeds whose headline mse_db make_reference.py stores in reference.json.
REFERENCE_SEEDS = range(70)
# Largest tolerated distance of an op's mse_db from the stored reference.
REFERENCE_TOL_DB = 0.01
# On a seed without a stored reference, mse_db must lie in the range of the
# stored values widened on each side by this multiple of the range's width.
PLAUSIBLE_WIDEN = 1.0
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def plausible_range(workload: str) -> tuple[float, float]:
    values = REFERENCE[workload].values()
    lo, hi = min(values), max(values)
    margin = PLAUSIBLE_WIDEN * (hi - lo)
    return lo - margin, hi + margin


def expected_mse_db(workload: str, seed: int) -> str:
    """What the mse_db check of ``workload`` on ``seed`` requires, in words."""
    ref = REFERENCE[workload].get(str(seed))
    if ref is not None:
        return f"reference {ref!r} +- {REFERENCE_TOL_DB} dB"
    lo, hi = plausible_range(workload)
    return f"no stored reference for this seed; plausible range [{lo:.3f}, {hi:.3f}] dB"


class OpFailed(Exception):
    """An op's command failed or its outputs did not pass a check."""


def run_cli(argv: list[str]) -> float:
    """Run one ``wrkhs`` command in-process; return its wall seconds."""
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = wrkhs_main(argv)
    dt = time.perf_counter() - t0
    if rc != 0:
        raise OpFailed(f"wrkhs {' '.join(argv[:2])} exited {rc}")
    return dt


def mse_db(pred, truth) -> float:
    return 10.0 * math.log10(float(np.mean(np.abs(pred - truth) ** 2)))


def sinc(u):
    return np.sinc(np.asarray(u) / np.pi)


# The two synthetic surfaces of the paper, written out here so that the
# benchmark's inputs do not change when the program changes.
def surface_exp1(x):
    xr, xj = x.real, x.imag
    yr = sum(sinc(1.2 * xr + 2 * r) * sinc(1.2 * xj - 2 * r) for r in (-1, 0, 1))
    return yr + 1j * sinc(0.2 * xj - 1.5)


def surface_exp2(x, omega=0.3):
    zr = sinc(0.5 * x.real) * sinc(0.5 * x.imag)
    zj = 0.1 * sinc(0.3 * x.imag)
    return (zr + omega * zj) + 1j * (zj + omega * zr)


def write_csv(path: Path, x, y=None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        head = ["x_re_0", "x_im_0"] + (["y_re", "y_im"] if y is not None else [])
        writer.writerow(head)
        for i in range(len(x)):
            row = [repr(float(x[i].real)), repr(float(x[i].imag))]
            if y is not None:
                row += [repr(float(y[i].real)), repr(float(y[i].imag))]
            writer.writerow(row)


def read_predictions(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([complex(float(r["pred_re"]), float(r["pred_im"])) for r in rows])


class Workload:
    """Inputs, one op, and output checks of one benchmark workload."""

    name = ""
    commands: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    probe = ""  # the kind of host-speed probe, see Probe

    def __init__(self, workdir: Path, seed: int):
        self.dir = workdir
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, out: Path, cli=run_cli) -> dict[str, float]:
        """Run one op writing into ``out`` through ``cli``; return seconds per command."""
        raise NotImplementedError

    def headline_mse_db(self, out: Path) -> float:
        """Check the op's outputs; return the worse of its headline MSEs."""
        raise NotImplementedError

    def check(self, out: Path) -> float:
        mse = self.headline_mse_db(out)
        if not math.isfinite(mse):
            raise OpFailed(f"mse_db is not finite: {mse}")
        ref = REFERENCE[self.name].get(str(self.seed))
        if ref is not None:
            if abs(mse - ref) > REFERENCE_TOL_DB:
                raise OpFailed(f"mse_db {mse!r} differs from reference {ref!r}")
        else:
            lo, hi = plausible_range(self.name)
            if not lo <= mse <= hi:
                raise OpFailed(f"mse_db {mse!r} outside the plausible range [{lo!r}, {hi!r}]")
        return mse

    def digests(self, out: Path) -> dict[str, str]:
        return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in self.outputs}

    def bytes_written(self, out: Path) -> int:
        return sum((out / n).stat().st_size for n in self.outputs)


class SyntheticPaper(Workload):
    name = "synthetic-paper"
    commands = ("exp1", "exp2")
    probe = "gram"
    outputs = (
        "synthetic1_grid.csv",
        "synthetic1_summary.json",
        "synthetic2_grid.csv",
        "synthetic2_summary.json",
    )
    bands = {1: (-48.0, 8.0), 2: (-40.0, 2.0)}

    def setup(self):
        for exp, lam in ((1, 1e-6), (2, 0.32)):
            cfg = {"experiment": exp, "seed": self.seed, "n_train": 200,
                   "grid_resolution": 101, "lam": lam}
            (self.dir / f"synthetic{exp}.json").write_text(json.dumps(cfg), encoding="utf-8")

    def op(self, out, cli=run_cli):
        return {
            f"exp{e}": cli(["bench", f"synthetic{e}", "--config",
                            str(self.dir / f"synthetic{e}.json"), "--out-dir", str(out)])
            for e in (1, 2)
        }

    def headline_mse_db(self, out):
        worst = -math.inf
        for exp, ablation_key in ((1, "null_pseudo_mse_db"), (2, "srkhs_mse_db")):
            summary = json.loads((out / f"synthetic{exp}_summary.json").read_text())
            level, gap = summary["wrkhs_mse_db"], summary[ablation_key] - summary["wrkhs_mse_db"]
            max_level, min_gap = self.bands[exp]
            if self.seed in BAND_SEEDS and not (level <= max_level and gap >= min_gap):
                raise OpFailed(
                    f"experiment {exp}: mse {level:.2f} dB, gap {gap:.2f} dB outside "
                    f"the band (<= {max_level}, >= {min_gap})"
                )
            worst = max(worst, level)
        return worst


class BatchCli(Workload):
    name = "batch-cli-n1500"
    commands = ("fit", "predict")
    probe = "cholesky"
    outputs = ("model_sos.json", "model_sep.json", "pred_sos.csv", "pred_sep.csv")
    n = 1500
    kernels = {
        # experiment 2 design: one separable term, length-scale 2, w = 0.3
        "sos": ({"family": "sum_of_separable",
                 "params": {"terms": [{"weight": 0.3, "gamma": 8.0, "scale": 1.0}]}}, 0.32),
        # experiment 1 design: length-scales 1 (real part) and 3.5 (imaginary part)
        "sep": ({"family": "separate_real_imag",
                 "params": {"rr": {"gamma": 2.0, "scale": 1.0},
                            "jj": {"gamma": 24.5, "scale": 1.0}}}, 1e-6),
    }

    def setup(self):
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        x, x_test = (rng.uniform(-5, 5, self.n) + 1j * rng.uniform(-5, 5, self.n)
                     for _ in range(2))
        self.truth = {"sos": surface_exp2(x_test), "sep": surface_exp1(x_test)}
        write_csv(self.dir / "train_sos.csv", x, surface_exp2(x))
        write_csv(self.dir / "train_sep.csv", x, surface_exp1(x))
        write_csv(self.dir / "test.csv", x_test)
        for k, (spec, _) in self.kernels.items():
            (self.dir / f"kernel_{k}.json").write_text(json.dumps(spec), encoding="utf-8")

    def op(self, out, cli=run_cli):
        t = {"fit": 0.0, "predict": 0.0}
        for k, (_, lam) in self.kernels.items():
            t["fit"] += cli(["fit", "--dataset", str(self.dir / f"train_{k}.csv"),
                             "--kernel", str(self.dir / f"kernel_{k}.json"),
                             "--lam", repr(lam), "--out", str(out / f"model_{k}.json")])
        for k in self.kernels:
            t["predict"] += cli(["predict", "--model", str(out / f"model_{k}.json"),
                                 "--dataset", str(self.dir / "test.csv"),
                                 "--out", str(out / f"pred_{k}.csv")])
        return t

    def headline_mse_db(self, out):
        worst = -math.inf
        for k, truth in self.truth.items():
            pred = read_predictions(out / f"pred_{k}.csv")
            if pred.shape != truth.shape or not np.all(np.isfinite(pred)):
                raise OpFailed(f"{k}: {pred.shape[0]} predictions, expected {self.n} finite")
            worst = max(worst, mse_db(pred, truth))
        return worst


class Equalization(Workload):
    name = "equalization-budget"
    commands = ("equalization",)
    probe = "rank1"
    outputs = ("equalization_curve.csv", "equalization_summary.json")
    trials = 2
    n_samples = 2000
    budget = 500

    def config(self) -> dict:
        return {"rho": 2 ** -0.5, "n_samples": self.n_samples, "trials": self.trials,
                "filter_length": 5, "delay": 2, "snr_db": 16.0,
                "budget": self.budget, "lam": 0.32, "base_seed": self.seed,
                "kernel": {"family": "real_gaussian", "params": {"gamma": 8.92, "scale": 1.0}}}

    def setup(self):
        (self.dir / "equalization.json").write_text(json.dumps(self.config()), encoding="utf-8")

    def op(self, out, cli=run_cli):
        return {"equalization": cli(["bench", "equalization", "--config",
                                     str(self.dir / "equalization.json"),
                                     "--out-dir", str(out)])}

    def headline_mse_db(self, out):
        summary = json.loads((out / "equalization_summary.json").read_text())
        # windows of length 5 reaching 2 samples ahead: the first 2 and last 2 drop
        if summary["trials"] != self.trials or summary["n_stream"] != self.n_samples - 4:
            raise OpFailed(f"summary reports {summary['trials']} trials, "
                           f"{summary['n_stream']} samples")
        return summary["final_mse_db"]

    def replay(self, rec: spans.Recorder | None) -> tuple[list[float], float]:
        """Run the op's trials one after another from the public functions.

        Returns the seconds of each trial and the final averaged MSE in dB,
        which must equal the command's. With a recorder, records spans.
        """
        cfg = channel.EqualizationConfig.from_config(self.config())
        ch = cfg.channel
        span = rec.span if rec is not None else (lambda name, **a: contextlib.nullcontext({}))
        seconds, curves = [], []
        for trial in range(ch.trials):
            t0 = time.perf_counter()
            with span("channel.generate"):
                source_rng, noise_rng = channel.trial_rngs(ch.base_seed, trial)
                s = channel.generate_source(ch.n_samples, ch.rho, source_rng, ch.source_scale)
                q = channel.apply_channel(s, ch.taps, ch.c2, ch.c3)
                r = channel.add_awgn(q, ch.snr_db, noise_rng)
                data = channel.build_equalizer_dataset(r, s, ch.filter_length, ch.delay)
            model = online.Wrkls(cfg.kernel, cfg.lam, budget=cfg.budget)
            preds = np.empty(data.n, dtype=np.complex128)
            for i in range(data.n):
                size = model.size
                if (i + 1) % online.RESIDUAL_CHECK_INTERVAL == 0:
                    cls = "check"
                else:
                    cls = "full" if size == cfg.budget else "fill"
                with span("online.observe", cls=cls, size_before=size) as attrs:
                    preds[i] = model.observe(data.X[i], data.y[i])
                attrs["size_after"] = model.size
            curves.append(np.cumsum(np.abs(preds - data.y) ** 2) / np.arange(1, data.n + 1))
            seconds.append(time.perf_counter() - t0)
        final = float(10.0 * np.log10(np.mean(np.stack(curves), axis=0))[-1])
        return seconds, final


WORKLOADS = {w.name: w for w in (SyntheticPaper, BatchCli, Equalization)}


def environment() -> dict:
    def blas(mod):
        return mod.__config__.CONFIG["Build Dependencies"]["blas"].get("version", "unknown")

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        **{v: os.environ.get(v) for v in BLAS_VARS + ("WRKHS_THREADS",)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np),
        "scipy_openblas": blas(scipy),
    }


class Runner:
    """Runs and checks the ops of one workload in this process."""

    def __init__(self, workload: Workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] | None = None
        self.mse_db: float | None = None
        self.bytes_written = 0

    def op(self, run=None) -> dict[str, float] | None:
        """One checked op; returns its command seconds, or None if it failed."""
        self.attempted += 1
        out = self.w.dir / f"out{self.attempted}"
        out.mkdir()
        try:
            times = (run or self.w.op)(out)
            digests = self.w.digests(out)
            if self.digests is None:
                self.mse_db = self.w.check(out)
                self.digests = digests
                self.bytes_written = self.w.bytes_written(out)
            elif digests != self.digests:
                changed = sorted(n for n in digests if digests[n] != self.digests[n])
                raise OpFailed(f"outputs differ from the first op: {changed}")
        except (OpFailed, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.failures.append(f"op {self.attempted}: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return times


class Probe:
    """A fixed numpy computation, timed between ops to gauge the host's speed.

    Its kind is that of the work the workload's op spends most of its time
    on, so that a busier host slows both alike:

    * ``gram``: a Gaussian kernel matrix between 10 201 and 200 complex
      points, times a coefficient vector, as in kernel evaluation and
      predict on the synthetic grid;
    * ``cholesky``: a dense complex Cholesky factorisation and solve, as in
      the batch fit;
    * ``rank1``: matrix-vector products and rank-1 updates of a 500 × 500
      matrix, as in the online recursion.

    Its inputs are fixed, not drawn from the workload seed, and it calls no
    ``wrkhs`` code, so a change to the program cannot change its cost. It
    runs as many copies at once as the op runs compute threads, and its
    time is that of the slowest copy, as an op's is that of its slowest
    trial.
    """

    def __init__(self, kind: str, threads: int):
        rng = np.random.Generator(np.random.Philox(key=PROBE_KEY))

        def cnormal(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        if kind == "gram":
            x, z, alpha = cnormal(10201, 1), cnormal(200, 1), cnormal(200)

            def work():
                sq = np.abs(x) ** 2 + (np.abs(z) ** 2).T - 2.0 * np.real(x @ z.conj().T)
                np.exp(-np.maximum(sq, 0.0)) @ alpha
        elif kind == "cholesky":
            a = cnormal(700, 700)
            a = a @ a.conj().T + 700.0 * np.eye(700)
            b = cnormal(700)

            def work():
                scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), b)
        elif kind == "rank1":
            a = rng.standard_normal((500, 500))
            q0 = np.linalg.inv(a @ a.T + 500.0 * np.eye(500))
            v = rng.standard_normal(500)

            def work():
                q = q0.copy()
                for _ in range(30):
                    u = q @ v
                    q -= np.outer(u, u) / (1.0 + v @ u)
        else:
            raise ValueError(f"unknown probe kind {kind!r}")
        self.work = work
        self.threads = threads

    def __call__(self) -> float:
        """Run the probe once; return its wall seconds."""
        t0 = time.perf_counter()
        copies = [threading.Thread(target=self.work) for _ in range(self.threads - 1)]
        for c in copies:
            c.start()
        self.work()
        for c in copies:
            c.join()
        return time.perf_counter() - t0


def loop(runner: Runner, seconds: float, probe: Probe | None = None,
         last_op_s: float = 0.0) -> tuple[list[dict[str, float]], list[list[float]]]:
    """Closed loop: start the next op while it is expected to end in time.

    At least one op runs. With a probe, the probe runs before every op and after the last one,
    for about ``PROBE_SHARE`` of the previous op's seconds (at least once);
    ``last_op_s`` is that of the op before the loop. Returns the command
    seconds of each op that passed, and the probe seconds of each gap.
    """
    done: list[dict[str, float]] = []
    gaps: list[list[float]] = []
    t0 = time.perf_counter()
    n = 0

    def probe_gap():
        gap = [probe()]
        while sum(gap) < PROBE_SHARE * last_op_s:
            gap.append(probe())
        gaps.append(gap)

    while True:
        if probe is not None:
            probe_gap()
        op_t0 = time.perf_counter()
        times = runner.op()
        last_op_s = time.perf_counter() - op_t0
        n += 1
        if times is not None:
            done.append(times)
        elapsed = time.perf_counter() - t0
        if elapsed * (n + 1) / n > seconds:
            if probe is not None:
                probe_gap()
            return done, gaps


def trace(runner: Runner, seconds: float) -> tuple[spans.Recorder, dict]:
    """Untraced ops, then one traced replay; returns its spans and layer metrics."""
    w = runner.w
    untraced, _ = loop(runner, seconds / 3)
    op_s = spans.median([sum(t.values()) for t in untraced])
    extra = {f"cli.{c}_s": 0.0 for kind in WORKLOADS.values() for c in kind.commands}
    for c in w.commands:
        extra[f"cli.{c}_s"] = spans.median([t[c] for t in untraced])
    extra.update({"channel.trial.p50_s": 0.0, "channel.pool_speedup": 0.0, "cli.bytes_written": 0})
    rec = spans.Recorder()
    rec.op = runner.attempted + 1  # the traced op's number in this process
    if isinstance(w, Equalization):
        # Serial replay of the op's trials, untraced then traced; the command
        # ran the same trials on its thread pool.
        serial, final = w.replay(None)
        t0 = time.perf_counter()
        with spans.installed(rec):
            _, traced_final = w.replay(rec)
        traced_s = time.perf_counter() - t0
        # Each replay counts as one checked op.
        for label, value in (("serial replay", final), ("traced replay", traced_final)):
            runner.attempted += 1
            if runner.mse_db is None or abs(value - runner.mse_db) > 1e-9:
                runner.failed += 1
                runner.failures.append(f"{label}: final mse {value!r}, command {runner.mse_db!r}")
        base_s = sum(serial)
        extra["channel.trial.p50_s"] = spans.median(serial)
        extra["channel.pool_speedup"] = base_s / op_s if op_s else 0.0
    else:
        def traced_cli(argv):
            with rec.span("cli", command=" ".join(argv[:2])):
                return run_cli(argv)

        with spans.installed(rec):
            times = runner.op(run=lambda out: w.op(out, cli=traced_cli))
        traced_s = sum(times.values()) if times else 0.0
        base_s = op_s
        extra["cli.bytes_written"] = runner.bytes_written
    extra["trace.overhead_share"] = (traced_s - base_s) / base_s if base_s and traced_s else 0.0
    return rec, spans.layer_metrics(rec, extra)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("run", "trace"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where the trace role writes its spans")
    args = parser.parse_args()

    pool = min(len(os.sched_getaffinity(0)), Equalization.trials)
    os.environ["WRKHS_THREADS"] = str(pool)
    args.workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.workdir, args.seed)
    # compute threads of one op: the trial pool, or the one calling thread
    threads = pool if isinstance(workload, Equalization) else 1
    workload.setup()
    runner = Runner(workload)
    t0 = time.perf_counter()
    runner.op()  # warm-up: lazy imports and first-call costs belong to set-up
    warmup_s = time.perf_counter() - t0
    print("READY", flush=True)

    result: dict = {}
    if args.role == "run":
        result["ops"], result["probes"] = loop(runner, args.seconds,
                                                Probe(workload.probe, threads), warmup_s)
    elif args.role == "trace":
        rec, layers = trace(runner, args.seconds)
        rec.write(args.spans)
        result["layers"] = {
            name: {"value": value, "unit": spans.LAYER_METRICS[name][0],
                   "computed": spans.LAYER_METRICS[name][1]}
            for name, value in layers.items()
        }
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures,
        digests=runner.digests,
        mse_db=runner.mse_db,
        expected_mse_db=expected_mse_db(workload.name, args.seed),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=environment(),
    )
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
