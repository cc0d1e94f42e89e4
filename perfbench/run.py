"""Benchmark of the wrkhs program: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Each workload runs in processes of its own (``worker.py``) with
one BLAS/OpenMP thread.

``--trace 0`` starts the workload process ``PROCESSES`` times, one after
another. Each one times its set-up, then runs ops for its share of
``--seconds`` with a fixed host-speed probe timed between them; the
end-to-end metrics are medians over the processes. ``--trace 1`` starts it
once, runs untraced ops, replays one op with tracing wrappers, and reports
the per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full result, with every sample and the environment, is
written to ``.perfbench/out/`` in the checkout, with the spans of a traced
run beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Workload processes per end-to-end run, one after another; each times its
# set-up and runs ops for this share of the run's seconds.
PROCESSES = 3
# Wall-clock limit for all workload processes of one run.
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in BLAS_VARS})
    return env


def run_worker(args, role: str, seconds: float, deadline: float, index: int = 0,
               spans: Path | None = None):
    """Start one workload process; return its set-up seconds and its result."""
    workdir = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}-{role}{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--role", role,
           "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    setup_s, result = None, None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or setup_s is None or result is None:
        raise WorkerFailed(f"{role} process exited {proc.returncode} without a result")
    return setup_s, result


def median(values) -> float:
    return float(statistics.median(values))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "wrkhs" / "__init__.py").is_file():
        print(f"run.py: no wrkhs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    deadline = time.monotonic() + DEADLINE_S
    (STATE / "out").mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            spans = STATE / "out" / f"{tag}-spans.jsonl"
            setups = []
            results = [run_worker(args, "trace", args.seconds, deadline, spans=spans)[1]]
            layers = results[0]["layers"]
            metrics = {n: layers[n]["value"] for n in layers}
            units = {n: layers[n]["unit"] for n in layers}
            notes = {n: "computed" for n in layers if layers[n]["computed"]}
        else:
            setups, results = [], []
            for i in range(PROCESSES):
                setup_s, result = run_worker(args, "run", args.seconds / PROCESSES, deadline, i)
                setups.append(setup_s)
                results.append(result)
            # Each process: median op seconds over median probe seconds.
            ratios = [median([sum(op.values()) for op in r["ops"]])
                      / median([p for gap in r["probes"] for p in gap])
                      for r in results if r["ops"]]
            ops = [op for r in results for op in r["ops"]]
            probes = [p for r in results for gap in r["probes"] for p in gap]
            metrics = {
                "setup_s": median(setups),
                "op_per_probe": median(ratios) if ratios else 0.0,
                "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            }
            units = {m["name"]: m["unit"] for m in declared}
            notes = {"setup_s": f"median of {len(setups)} set-ups",
                     "op_per_probe": f"median of {len(ratios)} processes; {len(ops)} ops, "
                                     f"{len(probes)} probes",
                     "peak_rss_mb": f"largest of {len(results)} processes"}
    except WorkerFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    if set(metrics) != {m["name"] for m in declared}:
        print(f"run.py: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    failed = sum(r["failed"] for r in results)
    for i, r in enumerate(results[1:], 2):
        if r["digests"] != results[0]["digests"]:
            failed += 1
            failures.append(f"outputs of workload process {i} differ from those of process 1")
    mse = results[-1]["mse_db"]

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} ops attempted, {failed} failed (error_rate {failed / attempted:.4g})")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value!r} {units[name]}{note}")
    if not args.trace:
        for command in ops[0] if ops else ():
            values = [op[command] for op in ops]
            print(f"  {command + '_s':32s} {median(values)!r} s  (median of {len(values)} ops)")
        if ops:
            print(f"  {'op_s':32s} {median([sum(op.values()) for op in ops])!r} s  "
                  f"(median of {len(ops)} ops)")
        print(f"  {'probe_s':32s} {median(probes)!r} s  (median of {len(probes)} probes)")
    print(f"  {'mse_db':32s} {mse!r} dB  "
          f"(worse headline MSE of the op; {results[-1]['expected_mse_db']})")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(f"  environment: {json.dumps(results[-1]['environment'], sort_keys=True)}")

    report = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in metrics},
    }
    full = {**report, "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "setup_samples_s": setups, "mse_db": mse,
            "failures": failures, "notes": notes, "workers": results}
    (STATE / "out" / f"{tag}.json").write_text(json.dumps(full, indent=1), encoding="utf-8")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
