"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs the traced run of each workload twice on seed ``SEED`` and requires
   every metric labelled "computed" to repeat exactly, and both runs to be
   correct.
2. Runs ``run.py`` in a directory holding only ``BENCHMARK.json`` and this
   directory, and requires it to exit non-zero without printing a result.

Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 0


def traced(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    out = ROOT / ".perfbench" / "out" / f"{workload}-seed{SEED}-trace1.json"
    return json.loads(out.read_text(encoding="utf-8"))


def check_counts(workload: str) -> list[str]:
    first, second = traced(workload), traced(workload)
    problems = [f"{workload}: run {i} not correct: {r['failures']}"
                for i, r in enumerate((first, second), 1) if not r["correct"]]
    computed = sorted(n for n, note in first["notes"].items() if note == "computed")
    for name in computed:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{workload}: computed {name} differs: {a!r} vs {b!r}")
    print(f"{workload}: {len(computed)} computed counts compared, "
          f"{'ok' if not problems else 'FAILED'}", flush=True)
    return problems


def check_refused_without_sources() -> list[str]:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", str(SEED),
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"without sources: exit {proc.returncode}, {'ok' if ok else 'FAILED'}", flush=True)
    return [] if ok else [f"run.py without sources exited {proc.returncode}: {proc.stdout!r}"]


def main() -> int:
    problems = check_refused_without_sources()
    for workload in WORKLOADS:
        problems += check_counts(workload)
    for p in problems:
        print("FAILED:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
