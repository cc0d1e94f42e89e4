"""Command-line front end: dataset I/O, fit/predict, kernel surfaces, benchmarks.

Subcommands
-----------
``fit``             fit a model from a dataset CSV and a kernel JSON spec
``predict``         evaluate a stored model on a dataset CSV
``kernel-surface``  dump kernel/pseudo-kernel values over a complex grid
``bench``           run one of the three benchmarks from a config JSON

Dataset CSV format: header ``x_re_0,..,x_re_{d-1},x_im_0,..,x_im_{d-1},y_re,
y_im`` (the two target columns are optional for ``predict``), one sample per
row, UTF-8, '.' decimal separator.

Kernel JSON format: ``{"family": <name>, "params": {...}}`` with families
``real_gaussian`` (params ``gamma``, optional ``scale``), ``complex_gaussian``
and ``independent`` (``gamma``), ``real_imag_blocks`` (nested ``rr``, ``jj``,
``rj``, ``jr`` param objects), ``separate_real_imag`` (``rr``, ``jj``), and
``sum_of_separable`` (``terms``: list of ``{"weight", "gamma", "scale"}``).

Exit codes: 0 success, 2 input error, 3 numerical failure. Benchmark outputs
embed the sha256 of their canonical config and the seed; reruns of the same
config are byte-identical. ``WRKHS_THREADS`` sets the trial-loop thread count
for the equalization benchmark.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .channel import EqualizationConfig, run_equalization
from .core import ComplexDataset, NumericalError
from .kernels import KernelSpec, kernel_from_config
from .regression import (
    fit_augmented,
    fit_srkhs,
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


def _fmt(v) -> str:
    return repr(float(v))


def _dataset_header(d: int, with_targets: bool = True) -> list[str]:
    cols = [f"x_re_{k}" for k in range(d)] + [f"x_im_{k}" for k in range(d)]
    return cols + (["y_re", "y_im"] if with_targets else [])


def read_dataset_csv(path) -> ComplexDataset:
    """Parse a dataset CSV; targets default to zero when the columns are absent."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    header = [h.strip() for h in rows[0]]
    with_targets = "y_re" in header
    n_x = len(header) - (2 if with_targets else 0)
    if n_x < 2 or n_x % 2 != 0:
        raise ValueError(f"{path}: malformed header {header}")
    d = n_x // 2
    if header != _dataset_header(d, with_targets):
        raise ValueError(f"{path}: malformed header {header}")
    x = np.zeros((len(rows) - 1, d), dtype=np.complex128)
    y = np.zeros(len(rows) - 1, dtype=np.complex128)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i}: expected {len(header)} fields")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise ValueError(f"{path}: row {i}: {exc}") from exc
        x[i - 2] = np.array(vals[:d]) + 1j * np.array(vals[d : 2 * d])
        if with_targets:
            y[i - 2] = complex(vals[2 * d], vals[2 * d + 1])
    return ComplexDataset(X=x, y=y)


def write_dataset_csv(path, data: ComplexDataset) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_dataset_header(data.d))
        for i in range(data.n):
            row = [_fmt(v) for v in data.X[i].real] + [_fmt(v) for v in data.X[i].imag]
            row += [_fmt(data.y[i].real), _fmt(data.y[i].imag)]
            writer.writerow(row)


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


def _load_json_config(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fit(args) -> int:
    data = read_dataset_csv(args.dataset)
    spec = _load_kernel(args.kernel)
    if spec.has_null_pseudo:
        model = fit_srkhs(data, spec, args.lam)
    else:
        model = fit_augmented(data, spec, args.lam)
    Path(args.out).write_text(model_to_json(model), encoding="utf-8")
    train_mse = mse_db(predict(model, data.X), data.y)
    print(f"n={data.n} d={data.d} training_mse_db={train_mse!r}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = model_from_json(Path(args.model).read_text(encoding="utf-8"))
    data = read_dataset_csv(args.dataset)
    preds = predict(model, data.X)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_dataset_header(data.d, with_targets=False) + ["pred_re", "pred_im"])
        for i in range(data.n):
            row = [_fmt(v) for v in data.X[i].real] + [_fmt(v) for v in data.X[i].imag]
            row += [_fmt(preds[i].real), _fmt(preds[i].imag)]
            writer.writerow(row)
    print(f"n={data.n} d={data.d} predictions={args.out}")
    return EXIT_OK


def cmd_kernel_surface(args) -> int:
    spec = _load_kernel(args.kernel)
    center = complex(args.center)
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
        "center": [center.real, center.imag],
        "range": args.range,
        "resolution": args.resolution,
        "diagonal": bool(args.diagonal),
    }
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write(_hash_comment(_config_hash(cfg), "none") + "\n")
        writer = csv.writer(fh)
        writer.writerow(["x_re", "x_im", "k_re", "k_im", "pk_re", "pk_im"])
        for p, kv, pkv in zip(pts[:, 0], k, pk):
            writer.writerow(
                [_fmt(p.real), _fmt(p.imag), _fmt(complex(kv).real),
                 _fmt(complex(kv).imag), _fmt(complex(pkv).real), _fmt(complex(pkv).imag)]
            )
    print(f"points={pts.shape[0]} surface={args.out}")
    return EXIT_OK


def _write_synthetic_outputs(out_dir: Path, name: str, config, result, ablation_key: str) -> None:
    cfg = config.to_config()
    chash = _config_hash(cfg)
    curve_path = out_dir / f"{name}_grid.csv"
    with open(curve_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_hash_comment(chash, config.seed) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["x_r", "x_j", "pred_r", "pred_j", "true_r", "true_j"])
        for g, p, t in zip(result.grid, result.wrkhs_pred, result.truth):
            writer.writerow(
                [_fmt(g.real), _fmt(g.imag), _fmt(p.real), _fmt(p.imag),
                 _fmt(t.real), _fmt(t.imag)]
            )
    summary = {
        "config": cfg,
        "config_sha256": chash,
        "seed": config.seed,
        "wrkhs_mse_db": result.wrkhs_mse_db,
        ablation_key: result.ablation_mse_db,
    }
    (out_dir / f"{name}_summary.json").write_text(
        _canonical_json(summary) + "\n", encoding="utf-8"
    )
    print(
        f"{name}: wrkhs_mse_db={result.wrkhs_mse_db!r} "
        f"{ablation_key}={result.ablation_mse_db!r}"
    )


def cmd_bench(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _load_json_config(args.config) if args.config else {}
    if args.experiment in ("synthetic1", "synthetic2"):
        exp_id = 1 if args.experiment == "synthetic1" else 2
        cfg.setdefault("experiment", exp_id)
        if cfg["experiment"] != exp_id:
            raise ValueError(
                f"config experiment={cfg['experiment']} does not match {args.experiment}"
            )
        if args.seed is not None:
            cfg["seed"] = args.seed
        if exp_id == 1:
            cfg.setdefault("lam", 1e-6)
            config = SyntheticConfig.from_config(cfg)
            result = run_exp1(config)
            _write_synthetic_outputs(out_dir, "synthetic1", config, result, "null_pseudo_mse_db")
        else:
            cfg.setdefault("lam", 0.32)
            config = SyntheticConfig.from_config(cfg)
            result = run_exp2(config)
            _write_synthetic_outputs(out_dir, "synthetic2", config, result, "srkhs_mse_db")
        return EXIT_OK

    # equalization
    if args.seed is not None:
        cfg["base_seed"] = args.seed
    config = EqualizationConfig.from_config(cfg)
    result = run_equalization(config)
    cdict = config.to_config()
    chash = _config_hash(cdict)
    curve_path = out_dir / "equalization_curve.csv"
    with open(curve_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_hash_comment(chash, config.channel.base_seed) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "avg_mse_db"])
        for i, v in enumerate(result.curve_db):
            writer.writerow([i, _fmt(v)])
    summary = {
        "config": cdict,
        "config_sha256": chash,
        "seed": config.channel.base_seed,
        "final_mse_db": result.final_mse_db,
        "n_stream": result.n_stream,
        "trials": result.trials,
    }
    (out_dir / "equalization_summary.json").write_text(
        _canonical_json(summary) + "\n", encoding="utf-8"
    )
    print(f"equalization: final_mse_db={result.final_mse_db!r}")
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

    p_fit = sub.add_parser("fit", help="fit a model from a dataset CSV")
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

    p_bench = sub.add_parser("bench", help="run a benchmark")
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
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
