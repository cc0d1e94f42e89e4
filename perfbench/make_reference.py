"""Regenerate ``reference.json``: each workload's headline mse_db per seed.

    python3 perfbench/make_reference.py

Runs one op of every workload on each seed of ``worker.REFERENCE_SEEDS``
with the program in ``src/`` and stores the op's mse_db. ``run.py`` fails
any op whose mse_db moves by more than ``worker.REFERENCE_TOL_DB`` from the
stored value, and on other seeds any op outside the range the stored values
span, widened as ``worker.plausible_range`` says. So regenerate only when a
change is meant to move a result, and say so in the change.
"""

import json
import os
import shutil
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import worker  # noqa: E402


def main() -> int:
    reference: dict[str, dict[str, float]] = {}
    scratch = worker.ROOT / ".perfbench" / "reference"
    for name in sorted(worker.WORKLOADS):
        for seed in worker.REFERENCE_SEEDS:
            shutil.rmtree(scratch, ignore_errors=True)
            out = scratch / "out"
            out.mkdir(parents=True)
            workload = worker.WORKLOADS[name](scratch, seed)
            workload.setup()
            workload.op(out)
            value = workload.headline_mse_db(out)
            reference.setdefault(name, {})[str(seed)] = value
            print(f"{name} seed={seed} mse_db={value!r}", flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (worker.HERE / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
