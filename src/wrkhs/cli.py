"""Command-line front end: dataset I/O, fit/predict, kernel surfaces, benchmarks.

Subcommands
-----------
``fit``             fit a model from a dataset CSV and a kernel JSON spec
``predict``         evaluate a stored model on a dataset CSV
``kernel-surface``  dump kernel/pseudo-kernel values over a complex grid
``bench``           run one of the three benchmarks from a config JSON

``fit`` makes one fit call, ``regression.fit_augmented``, and prints ``n``,
``d`` and ``training_mse_db``, the residual of the shifted system it solved
(``regression.FitInfo.residual``): ``lam alpha`` without a jitter retry, so
no kernel is evaluated after the fit. At ``lam = 0`` it reads the -320 dB
floor and does not show the solve's rounding; ``mse_db(predict(model, X),
y)`` is the backward check.

Dataset CSV format: header ``x_re_0,..,x_re_{d-1},x_im_0,..,x_im_{d-1},y_re,
y_im`` (the two target columns are optional for ``predict``), one sample per
row, UTF-8, '.' decimal separator. Every CSV is written by one column writer
(``_write_csv``) and every JSON by ``json``; both write each number as its
shortest round-trip ``repr``, and every value reads back bit-exactly. The
writer formats and writes one block of ``CSV_BLOCK_ROWS`` rows at a time.

Kernel JSON format: ``{"family": <name>, "params": {...}}`` with families
``real_gaussian`` (params ``gamma``, optional ``scale``), ``complex_gaussian``
and ``independent`` (``gamma``), ``real_imag_blocks`` (nested ``rr``, ``jj``,
``rj``, ``jr`` param objects), ``separate_real_imag`` (``rr``, ``jj``), and
``sum_of_separable`` (``terms``: list of ``{"weight", "gamma", "scale"}``).
A complex value in any JSON file (config, model, surface header) is one
``[re, im]`` pair, and a bool is rejected where a number is expected.

A benchmark config is a JSON object of config dataclass fields, each stored
as its annotation says (``core.store_as_annotated``). An equalization config
is checked when it is built, so a bad one exits 2 before any trial runs.

Exit codes: 0 success, 2 input error (an input too large to hold in memory
included), 3 numerical failure. Benchmark outputs embed the sha256 of their
canonical config and the seed; reruns of the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .channel import EqualizationConfig, run_equalization
from .core import ComplexDataset, NumericalError, to_pairs
from .kernels import KernelSpec, kernel_from_config
from .regression import (
    fit_augmented,
    fit_srkhs,  # not called here: perfbench/spans.py patches this name on cli
    model_from_json,
    model_to_json,
    mse_db,
    predict,
)
from .synthetic import SyntheticConfig, run_exp1, run_exp2

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# ---------------------------------------------------------------------------
# dataset CSV I/O
# ---------------------------------------------------------------------------


def _re_im_columns(*arrays) -> list[np.ndarray]:
    """The real then the imaginary part of each array in turn, as 1-D columns;
    a 2-D array gives one column per input dimension."""
    return [col for a in arrays for part in (a.real, a.imag) for col in np.atleast_2d(part.T)]


# rows formatted and written at a time, so a file's size never sets the memory held
CSV_BLOCK_ROWS = 512


def _write_csv(path, header, columns, comment=None) -> None:
    """``header`` then the rows of the equal-length 1-D arrays ``columns``, in
    the bytes the standard ``csv`` module writes for the same rows of Python
    numbers (each value's ``repr``, ``\\r\\n`` line ends), after a ``comment``
    line when one is given."""
    n = len(columns[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(comment + "\n")
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, CSV_BLOCK_ROWS):
            text = [map(repr, c[start : start + CSV_BLOCK_ROWS].tolist()) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*text))) + "\r\n")


def _dataset_header(d: int, with_targets: bool = True) -> list[str]:
    cols = [f"x_re_{k}" for k in range(d)] + [f"x_im_{k}" for k in range(d)]
    return cols + (["y_re", "y_im"] if with_targets else [])


def read_dataset_csv(path) -> ComplexDataset:
    """Parse a dataset CSV; targets default to zero when the columns are absent.
    Every value is read bit-exactly, sign of zero included. An error names its
    row by the file line it ends on, comment and blank lines counted."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row and not row[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    header = [h.strip() for h in rows[0][1]]
    with_targets = "y_re" in header
    d = len(header) // 2 - with_targets
    if d < 1 or header != _dataset_header(d, with_targets):
        raise ValueError(f"{path}: malformed header {header}")
    vals = np.empty((len(rows) - 1, len(header)))
    for i, (line, row) in enumerate(rows[1:]):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {line}: expected {len(header)} fields")
        try:
            vals[i] = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{path}: row {line}: {exc}") from exc
    x = np.empty((vals.shape[0], d), dtype=np.complex128)
    y = np.zeros(vals.shape[0], dtype=np.complex128)
    x.real, x.imag = vals[:, :d], vals[:, d : 2 * d]
    if with_targets:
        y.real, y.imag = vals[:, 2 * d], vals[:, 2 * d + 1]
    return ComplexDataset(X=x, y=y)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _load_kernel(arg: str) -> KernelSpec:
    text = arg.strip()
    if not text.startswith("{"):
        text = Path(arg).read_text(encoding="utf-8")
    return kernel_from_config(json.loads(text))


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _config_hash(obj) -> str:
    return hashlib.sha256(_canonical_json(obj).encode("utf-8")).hexdigest()


def _hash_comment(config_hash: str, seed) -> str:
    return f"# config_sha256={config_hash} seed={seed}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    data = read_dataset_csv(args.dataset)
    model = fit_augmented(data, _load_kernel(args.kernel), args.lam)
    Path(args.out).write_text(model_to_json(model), encoding="utf-8")
    # y - f(X) from the solved system (FitInfo.residual): no kernel pass
    train_mse = mse_db(model.info.residual(model.alpha), np.zeros(data.n))
    print(f"n={data.n} d={data.d} training_mse_db={train_mse!r}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = model_from_json(Path(args.model).read_text(encoding="utf-8"))
    data = read_dataset_csv(args.dataset)
    preds = predict(model, data.X)
    header = _dataset_header(data.d, with_targets=False) + ["pred_re", "pred_im"]
    _write_csv(args.out, header, _re_im_columns(data.X, preds))
    print(f"n={data.n} d={data.d} predictions={args.out}")
    return EXIT_OK


def cmd_kernel_surface(args) -> int:
    spec = _load_kernel(args.kernel)
    center = complex(args.center)
    if not (math.isfinite(args.range) and args.range > 0):
        raise ValueError(f"--range must be finite and positive, got {args.range}")
    if not cmath.isfinite(center):
        raise ValueError(f"--center must be finite, got {args.center}")
    if args.resolution < 1:
        raise ValueError(f"--resolution must be >= 1, got {args.resolution}")
    grid = np.linspace(-args.range, args.range, args.resolution)
    gr, gj = np.meshgrid(grid, grid, indexing="ij")
    pts = (gr.ravel() + 1j * gj.ravel())[:, None]
    if args.diagonal:
        # k(x, x) along the grid; the center argument is unused
        k, pk = spec.diag(pts)
    else:
        k, pk = (m[0] for m in spec.pair(np.array([[center]]), pts))
    cfg = {
        "kernel": spec.to_config(),
        "center": to_pairs(center),
        "range": args.range,
        "resolution": args.resolution,
        "diagonal": bool(args.diagonal),
    }
    _write_csv(
        args.out,
        ["x_re", "x_im", "k_re", "k_im", "pk_re", "pk_im"],
        _re_im_columns(pts[:, 0], k, pk),
        _hash_comment(_config_hash(cfg), "none"),
    )
    print(f"points={pts.shape[0]} surface={args.out}")
    return EXIT_OK


def _write_bench(out_dir: Path, name: str, config, seed, table, results: dict) -> None:
    """Write ``<name>_<kind>.csv`` from ``table = (kind, header, columns)`` and
    ``<name>_summary.json``, both stamped with the hash of ``config``."""
    cfg = config.to_config()
    chash = _config_hash(cfg)
    kind, header, columns = table
    _write_csv(out_dir / f"{name}_{kind}.csv", header, columns, _hash_comment(chash, seed))
    summary = {"config": cfg, "config_sha256": chash, "seed": seed, **results}
    (out_dir / f"{name}_summary.json").write_text(
        _canonical_json(summary) + "\n", encoding="utf-8"
    )


# per synthetic benchmark: experiment, default ridge weight, ablation score key
SYNTHETIC = {
    "synthetic1": (1, 1e-6, "null_pseudo_mse_db"),
    "synthetic2": (2, 0.32, "srkhs_mse_db"),
}


def cmd_bench(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    if not isinstance(cfg, dict):
        raise ValueError(f"--config {args.config} must be a JSON object")
    name = args.experiment
    if name == "equalization":
        if args.seed is not None:
            cfg["base_seed"] = args.seed
        config = EqualizationConfig.from_config(cfg)
        result = run_equalization(config)
        curve = ("curve", ["sample_index", "avg_mse_db"],
                 [np.arange(len(result.curve_db)), result.curve_db])
        results = {key: getattr(result, key) for key in ("final_mse_db", "n_stream", "trials")}
        _write_bench(out_dir, name, config, config.channel.base_seed, curve, results)
        print(f"equalization: final_mse_db={result.final_mse_db!r}")
        return EXIT_OK

    exp_id, lam, ablation_key = SYNTHETIC[name]
    cfg.setdefault("experiment", exp_id)
    if args.seed is not None:
        cfg["seed"] = args.seed
    cfg.setdefault("lam", lam)
    config = SyntheticConfig.from_config(cfg)
    # looked up per call, so a replaced run_exp1/run_exp2 is the one that runs
    result = (run_exp1 if exp_id == 1 else run_exp2)(config)
    grid = ("grid", ["x_r", "x_j", "pred_r", "pred_j", "true_r", "true_j"],
            _re_im_columns(result.grid, result.wrkhs_pred, result.truth))
    results = {"wrkhs_mse_db": result.wrkhs_mse_db, ablation_key: result.ablation_mse_db}
    _write_bench(out_dir, name, config, config.seed, grid, results)
    print(f"{name}: " + " ".join(f"{key}={value!r}" for key, value in results.items()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrkhs",
        description="Widely complex-valued kernel regression toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the one note on byte reproducibility, as in README
    threads = ("Outputs are byte-reproducible only at a fixed BLAS thread count "
               "(OPENBLAS_NUM_THREADS) where a system of order >= 512 is factored (a fit "
               "at n >= 512, or at n >= 256 for a no-phase kernel's 2n system) and in an "
               "unbudgeted equalization.")

    p_fit = sub.add_parser("fit", help="fit a model from a dataset CSV", description=threads)
    p_fit.add_argument("--dataset", required=True)
    p_fit.add_argument("--kernel", required=True, help="kernel JSON file or inline JSON")
    p_fit.add_argument("--lam", type=float, required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="evaluate a stored model")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--dataset", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_surf = sub.add_parser("kernel-surface", help="dump kernel values over a grid")
    p_surf.add_argument("--kernel", required=True)
    p_surf.add_argument("--center", default="0+0j")
    p_surf.add_argument("--range", type=float, required=True)
    p_surf.add_argument("--resolution", type=int, default=101)
    p_surf.add_argument("--diagonal", action="store_true", help="evaluate k(x, x) along the grid")
    p_surf.add_argument("--out", required=True)
    p_surf.set_defaults(func=cmd_kernel_surface)

    p_bench = sub.add_parser("bench", help="run a benchmark", description=threads)
    p_bench.add_argument(
        "experiment", choices=["synthetic1", "synthetic2", "equalization"]
    )
    p_bench.add_argument("--config", default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--out-dir", default=".")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as exc:
        # an input too large to evaluate, such as a kernel surface of 10^10 points
        print(f"input error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
