"""Output-identity check: does a fixed set of ``wrkhs`` commands still write
the same bytes?

    python3 tools/identity.py --write .perfbench/identity.json
    python3 tools/identity.py --check .perfbench/identity.json

Run it from the root of a source checkout; the program is imported from
``src/``. The set runs in-process through ``wrkhs.cli.main`` at one BLAS
thread (the thread variables are set before numpy is imported):

* ``bench synthetic1`` and ``bench synthetic2`` at seeds 0-9;
* ``bench equalization`` at the ``equalization-budget`` config of the
  benchmark (rho 2^-1/2, 2000 samples, 2 trials, budget 500, lam 0.32,
  ``real_gaussian`` gamma 8.92) at seeds 0-2, and once on a degenerate
  stream (rho 0.5, 600 samples, 1 trial, budget 20, lam 1e-17,
  ``real_gaussian`` gamma 1e4) that takes singular rebuilds at the budget;
* ``kernel-surface`` for each of the six kernel families, about a center
  and along the diagonal ``k(x, x)`` (``--diagonal``), whose stationary
  kernels write constant columns;
* ``fit`` then ``predict`` at n = 1500 for both ``batch-cli-n1500`` kernels,
  on datasets drawn from Philox(seed) at seeds 0-2;
* ``fit`` then ``predict`` at n = 300, lam 0.1, for each of the six kernel
  families, on inputs in [-2, 2]^2 drawn from Philox(0): every solve path
  (``srkhs`` for the three null pseudo-kernels, ``split`` and ``2n``).

``--write`` records the sha256 of every output file in a JSON manifest.
``--check`` reruns the set, prints every file whose bytes differ from the
manifest (or that is missing or new) and exits 1 if there is one, else 0.
OpenBLAS picks its kernels by CPU, so a manifest holds for the machine that
wrote it: keep it under the ignored ``.perfbench/``, write it on the parent
tree and check the change against it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from wrkhs.cli import main as wrkhs_main  # noqa: E402
from wrkhs.synthetic import target_exp1, target_exp2  # noqa: E402

SYNTHETIC_SEEDS = range(10)
EQUALIZATION_SEEDS = range(3)
BATCH_SEEDS = range(3)
BATCH_N = 1500
FAMILY_FIT_N = 300
FAMILY_FIT_LAM = 0.1

EQUALIZATION = {
    "rho": 2 ** -0.5, "n_samples": 2000, "trials": 2, "filter_length": 5, "delay": 2,
    "snr_db": 16.0, "budget": 500, "lam": 0.32,
    "kernel": {"family": "real_gaussian", "params": {"gamma": 8.92, "scale": 1.0}},
}

# a nearly flat kernel at a tiny ridge weight: singular rebuilds at the budget
DEGENERATE_EQUALIZATION = {
    "rho": 0.5, "n_samples": 600, "trials": 1, "budget": 20, "lam": 1e-17, "base_seed": 0,
    "kernel": {"family": "real_gaussian", "params": {"gamma": 1e4, "scale": 1.0}},
}

# the kernels and ridge weights of the batch-cli-n1500 workload
BATCH_KERNELS = {
    "sos": ({"family": "sum_of_separable",
             "params": {"terms": [{"weight": 0.3, "gamma": 8.0, "scale": 1.0}]}}, 0.32, target_exp2),
    "sep": ({"family": "separate_real_imag",
             "params": {"rr": {"gamma": 2.0, "scale": 1.0},
                        "jj": {"gamma": 24.5, "scale": 1.0}}}, 1e-6, target_exp1),
}

SURFACE_KERNELS = [
    {"family": "real_gaussian", "params": {"gamma": 2.0, "scale": 0.7}},
    {"family": "complex_gaussian", "params": {"gamma": 3.0}},
    {"family": "independent", "params": {"gamma": 1.5}},
    {"family": "real_imag_blocks",
     "params": {"rr": {"gamma": 0.9}, "jj": {"gamma": 3.1},
                "rj": {"gamma": 2.0, "scale": 0.4}, "jr": {"gamma": 2.0, "scale": 0.4}}},
    {"family": "separate_real_imag", "params": {"rr": {"gamma": 1.0}, "jj": {"gamma": 3.5}}},
    {"family": "sum_of_separable",
     "params": {"terms": [{"weight": 0.3, "gamma": 2.0}, {"weight": 0.6, "gamma": 0.5}]}},
]


def cli(*argv) -> None:
    """One ``wrkhs`` command in-process, its stdout dropped; it must exit 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = wrkhs_main([str(a) for a in argv])
    if rc != 0:
        sys.exit(f"identity: wrkhs {' '.join(map(str, argv[:2]))} exited {rc}")


def write_dataset(path: Path, x, y) -> None:
    """A one-dimensional dataset CSV, every number as its ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        rows = csv.writer(fh)
        rows.writerow(["x_re_0", "x_im_0", "y_re", "y_im"])
        rows.writerows([repr(v) for v in (a.real, a.imag, b.real, b.imag)]
                       for a, b in zip(x.tolist(), y.tolist()))


def fit_and_predict(out: Path, name: str, kernel: dict, lam: float, train: Path,
                    test: Path) -> None:
    """``fit`` on ``train`` and ``predict`` on ``test``, as ``model_<name>.json``
    and ``pred_<name>.csv`` under ``out``."""
    cli("fit", "--dataset", train, "--kernel", json.dumps(kernel), "--lam", repr(lam),
        "--out", out / f"model_{name}.json")
    cli("predict", "--model", out / f"model_{name}.json", "--dataset", test,
        "--out", out / f"pred_{name}.csv")


def draw_inputs(seed: int, n: int, half_width: float):
    """Training and test inputs, each n points uniform on a square of the
    complex plane centred at 0, from Philox(seed)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return (rng.uniform(-half_width, half_width, n) + 1j * rng.uniform(-half_width, half_width, n)
            for _ in range(2))


def run_set(work: Path) -> dict[str, str]:
    """Run the set with its outputs under ``work``; the sha256 of each output
    file, by its path relative to ``work``."""
    inputs = work / "inputs"
    inputs.mkdir()
    for seed in SYNTHETIC_SEEDS:
        for name in ("synthetic1", "synthetic2"):
            cli("bench", name, "--seed", seed, "--out-dir", work / f"{name}-seed{seed}")
    (inputs / "equalization.json").write_text(json.dumps(EQUALIZATION), encoding="utf-8")
    for seed in EQUALIZATION_SEEDS:
        cli("bench", "equalization", "--config", inputs / "equalization.json", "--seed", seed,
            "--out-dir", work / f"equalization-seed{seed}")
    (inputs / "degenerate.json").write_text(json.dumps(DEGENERATE_EQUALIZATION), encoding="utf-8")
    cli("bench", "equalization", "--config", inputs / "degenerate.json",
        "--out-dir", work / "equalization-degenerate")
    (work / "surface").mkdir()
    for kernel in SURFACE_KERNELS:
        for suffix, diagonal in (("", ()), ("-diagonal", ("--diagonal",))):
            cli("kernel-surface", "--kernel", json.dumps(kernel), "--center", "0.5-0.25j",
                "--range", 3, "--resolution", 101, *diagonal,
                "--out", work / "surface" / f"{kernel['family']}{suffix}.csv")
    for seed in BATCH_SEEDS:
        out = work / f"batch-seed{seed}"
        out.mkdir()
        x, x_test = draw_inputs(seed, BATCH_N, 5.0)
        write_dataset(inputs / "test.csv", x_test, np.zeros(BATCH_N))
        for name, (kernel, lam, target) in BATCH_KERNELS.items():
            write_dataset(inputs / "train.csv", x, target(x))
            fit_and_predict(out, name, kernel, lam, inputs / "train.csv", inputs / "test.csv")
    # on [-5, 5]^2 the complex Gaussian's Gram takes the jitter retry
    out = work / "families"
    out.mkdir()
    x, x_test = draw_inputs(0, FAMILY_FIT_N, 2.0)
    write_dataset(inputs / "train.csv", x, target_exp2(x))
    write_dataset(inputs / "test.csv", x_test, np.zeros(FAMILY_FIT_N))
    for kernel in SURFACE_KERNELS:
        fit_and_predict(out, kernel["family"], kernel, FAMILY_FIT_LAM, inputs / "train.csv",
                        inputs / "test.csv")
    return {
        path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.rglob("*"))
        if path.is_file() and inputs not in path.parents
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="MANIFEST", type=Path,
                      help="record the sha256 of every output file")
    mode.add_argument("--check", metavar="MANIFEST", type=Path,
                      help="list every output file whose bytes differ from MANIFEST")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="wrkhs-identity-") as tmp:
        digests = run_set(Path(tmp))
    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
        print(f"identity: {len(digests)} files recorded in {args.write}")
        return 0
    recorded = json.loads(args.check.read_text(encoding="utf-8"))
    differ = sorted(name for name in recorded.keys() | digests.keys()
                    if recorded.get(name) != digests.get(name))
    for name in differ:
        what = "missing" if name not in digests else "new" if name not in recorded else "changed"
        print(f"{what}: {name}")
    print(f"identity: {len(differ)} of {len(recorded.keys() | digests.keys())} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
