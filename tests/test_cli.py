"""Tests for the command-line interface."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from wrkhs import (
    ComplexDataset,
    KernelSpec,
    fit_composite,
    model_from_json,
    predict,
    predict_composite,
)
from wrkhs.cli import main, read_dataset_csv, write_dataset_csv


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header = rows[0]
    data = {h: np.array([float(r[i]) for r in rows[1:]]) for i, h in enumerate(header)}
    return header, data


KERNEL_RG = '{"family": "real_gaussian", "params": {"gamma": 1.0}}'


class TestDatasetIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = ComplexDataset(
            X=rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)),
            y=rng.standard_normal(5) + 1j * rng.standard_normal(5),
        )
        p = tmp_path / "d.csv"
        write_dataset_csv(p, data)
        back = read_dataset_csv(p)
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.y, data.y)

    def test_malformed_row_reports_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(
            p,
            ["x_re_0", "x_im_0", "y_re", "y_im"],
            [["1.0", "0.0", "1.0", "0.0"], ["1.0", "oops", "0.0", "0.0"]],
        )
        with pytest.raises(ValueError, match="row 3"):
            read_dataset_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_csv(p, ["a", "b"], [["1", "2"]])
        with pytest.raises(ValueError, match="header"):
            read_dataset_csv(p)


class TestFit:
    def test_single_sample(self, tmp_path, capsys):
        data_path = tmp_path / "one.csv"
        write_csv(
            data_path,
            ["x_re_0", "x_im_0", "y_re", "y_im"],
            [["0.0", "0.0", "2.0", "1.0"]],
        )
        model_path = tmp_path / "model.json"
        rc = main(
            [
                "fit",
                "--dataset",
                str(data_path),
                "--kernel",
                KERNEL_RG,
                "--lam",
                "1.0",
                "--out",
                str(model_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "n=1 d=1" in out
        model = model_from_json(model_path.read_text())
        # alpha = y / (k + lam) = (2 + j) / 2
        assert model.alpha[0] == pytest.approx(1.0 + 0.5j)

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        data_path = tmp_path / "bad.csv"
        write_csv(
            data_path,
            ["x_re_0", "x_im_0", "y_re", "y_im"],
            [["0.0", "xyz", "1.0", "0.0"]],
        )
        rc = main(
            [
                "fit",
                "--dataset",
                str(data_path),
                "--kernel",
                KERNEL_RG,
                "--lam",
                "1.0",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2
        assert "row 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        rc = main(
            [
                "fit",
                "--dataset",
                str(tmp_path / "nope.csv"),
                "--kernel",
                KERNEL_RG,
                "--lam",
                "0.1",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--bogus", "x"])
        assert exc.value.code == 2

    def test_indefinite_kernel_pair_exit_3(self, tmp_path, capsys):
        # overweight cross blocks make the composite Gram indefinite
        rng = np.random.default_rng(2)
        data = ComplexDataset(
            X=rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1)),
            y=rng.standard_normal(8) + 1j * rng.standard_normal(8),
        )
        data_path = tmp_path / "d.csv"
        write_dataset_csv(data_path, data)
        kernel = json.dumps(
            {
                "family": "real_imag_blocks",
                "params": {
                    "rr": {"gamma": 1.0, "scale": 0.2},
                    "jj": {"gamma": 1.0, "scale": 0.2},
                    "rj": {"gamma": 1.0, "scale": 1.0},
                    "jr": {"gamma": 1.0, "scale": 1.0},
                },
            }
        )
        rc = main(
            [
                "fit",
                "--dataset",
                str(data_path),
                "--kernel",
                kernel,
                "--lam",
                "0.0001",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_sinc_labels_small_lam_fit(self, tmp_path):
        # separate real/imag kernels at lam = 1e-6 on sinc labels: the complex
        # 2n augmented solve this replaced lost conjugate symmetry here (exit 3)
        rng = np.random.default_rng(0)
        u = rng.uniform(-5, 5, (100, 2))
        x = u[:, 0] + 1j * u[:, 1]
        data = ComplexDataset(X=x[:, None], y=np.sinc(x.real) + 1j * np.sinc(x.imag))
        data_path = tmp_path / "d.csv"
        write_dataset_csv(data_path, data)
        model_path = tmp_path / "m.json"
        kernel = {
            "family": "separate_real_imag",
            "params": {"rr": {"gamma": 2.0}, "jj": {"gamma": 24.5}},
        }
        rc = main(
            [
                "fit",
                "--dataset",
                str(data_path),
                "--kernel",
                json.dumps(kernel),
                "--lam",
                "1e-6",
                "--out",
                str(model_path),
            ]
        )
        assert rc == 0
        model = model_from_json(model_path.read_text())
        a_com = fit_composite(data, model.spec, 1e-6)
        np.testing.assert_allclose(
            predict(model, data.X),
            predict_composite(model.spec, data.X, a_com, data.X),
            atol=1e-8,
        )

    @pytest.mark.parametrize("column,field", [("x_im_0", "X"), ("y_re", "y")])
    def test_nonfinite_field_exit_2_before_gram(
        self, tmp_path, capsys, monkeypatch, column, field
    ):
        header = ["x_re_0", "x_im_0", "y_re", "y_im"]
        row = ["0.5", "0.25", "1.0", "0.0"]
        row[header.index(column)] = "nan"
        data_path = tmp_path / "nan.csv"
        write_csv(data_path, header, [["0.0", "0.0", "1.0", "0.0"], row])

        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram matrix was built")

        monkeypatch.setattr(KernelSpec, "pair", no_gram)
        monkeypatch.setattr(KernelSpec, "gram", no_gram)
        rc = main(
            [
                "fit",
                "--dataset",
                str(data_path),
                "--kernel",
                KERNEL_RG,
                "--lam",
                "0.1",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2
        assert f"{field} contains non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_nonfinite_lam_exit_2_before_gram(self, tmp_path, capsys, monkeypatch, lam):
        data_path = tmp_path / "d.csv"
        write_csv(
            data_path,
            ["x_re_0", "x_im_0", "y_re", "y_im"],
            [["0.0", "0.0", "1.0", "0.0"], ["0.5", "0.25", "0.0", "1.0"]],
        )

        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram matrix was built")

        monkeypatch.setattr(KernelSpec, "pair", no_gram)
        monkeypatch.setattr(KernelSpec, "gram", no_gram)
        kernel_sri = (
            '{"family": "separate_real_imag", '
            '"params": {"rr": {"gamma": 1.0}, "jj": {"gamma": 3.0}}}'
        )
        for kernel in (KERNEL_RG, kernel_sri):
            rc = main(
                [
                    "fit",
                    "--dataset",
                    str(data_path),
                    "--kernel",
                    kernel,
                    "--lam",
                    lam,
                    "--out",
                    str(tmp_path / "m.json"),
                ]
            )
            assert rc == 2
            assert "ridge weight must be finite" in capsys.readouterr().err
            assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "params",
        [
            {"gamma": 1.0, "scale": math.inf},
            {"gamma": 1.0, "scale": math.nan},
            {"gamma": math.inf},
        ],
    )
    def test_nonfinite_kernel_param_exit_2_before_gram(
        self, tmp_path, capsys, monkeypatch, params
    ):
        data_path = tmp_path / "d.csv"
        write_csv(
            data_path,
            ["x_re_0", "x_im_0", "y_re", "y_im"],
            [["0.0", "0.0", "1.0", "0.0"], ["0.5", "0.25", "0.0", "1.0"]],
        )

        def no_gram(*args, **kwargs):
            raise AssertionError("a Gram matrix was built")

        monkeypatch.setattr(KernelSpec, "pair", no_gram)
        monkeypatch.setattr(KernelSpec, "gram", no_gram)
        kernel = json.dumps({"family": "real_gaussian", "params": params})
        rc = main(
            [
                "fit",
                "--dataset",
                str(data_path),
                "--kernel",
                kernel,
                "--lam",
                "0.1",
                "--out",
                str(tmp_path / "m.json"),
            ]
        )
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("field", ["inputs", "lambda"])
    def test_predict_nonfinite_model_exit_2(self, tmp_path, capsys, field):
        train_path = tmp_path / "train.csv"
        write_csv(train_path, ["x_re_0", "x_im_0", "y_re", "y_im"], [["0.0", "0.0", "1.0", "0.0"]])
        model_path = tmp_path / "m.json"
        fit_args = ["fit", "--dataset", str(train_path), "--kernel", KERNEL_RG]
        assert main(fit_args + ["--lam", "0.1", "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        if field == "inputs":
            payload["inputs"]["values"][0][0] = math.nan
        else:
            payload["lambda"] = math.nan
        model_path.write_text(json.dumps(payload))
        pred_path = tmp_path / "preds.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--dataset",
                str(train_path),
                "--out",
                str(pred_path),
            ]
        )
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not pred_path.exists()

    def test_fit_predict_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        data = ComplexDataset(
            X=rng.standard_normal((12, 2)) + 1j * rng.standard_normal((12, 2)),
            y=rng.standard_normal(12) + 1j * rng.standard_normal(12),
        )
        data_path = tmp_path / "train.csv"
        write_dataset_csv(data_path, data)
        model_path = tmp_path / "model.json"
        kernel = '{"family": "separate_real_imag", "params": {"rr": {"gamma": 1.0}, "jj": {"gamma": 3.0}}}'
        assert (
            main(
                [
                    "fit",
                    "--dataset",
                    str(data_path),
                    "--kernel",
                    kernel,
                    "--lam",
                    "0.5",
                    "--out",
                    str(model_path),
                ]
            )
            == 0
        )
        pred_path = tmp_path / "preds.csv"
        assert (
            main(
                [
                    "predict",
                    "--model",
                    str(model_path),
                    "--dataset",
                    str(data_path),
                    "--out",
                    str(pred_path),
                ]
            )
            == 0
        )
        # in-process reference through the serialized model (bit-exact)
        from wrkhs import predict as predict_fn

        model = model_from_json(model_path.read_text())
        ref = predict_fn(model, data.X)
        _, cols = read_rows(pred_path)
        np.testing.assert_array_equal(cols["pred_re"], ref.real)
        np.testing.assert_array_equal(cols["pred_im"], ref.imag)


    def test_predict_nonfinite_input_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        train_path = tmp_path / "train.csv"
        write_csv(train_path, ["x_re_0", "x_im_0", "y_re", "y_im"], [["0.0", "0.0", "1.0", "0.0"]])
        fit_args = ["fit", "--dataset", str(train_path), "--kernel", KERNEL_RG]
        assert main(fit_args + ["--lam", "0.1", "--out", str(model_path)]) == 0
        query_path = tmp_path / "query.csv"
        write_csv(query_path, ["x_re_0", "x_im_0"], [["0.0", "1.0"], ["inf", "0.0"]])
        pred_path = tmp_path / "preds.csv"
        rc = main(
            [
                "predict",
                "--model",
                str(model_path),
                "--dataset",
                str(query_path),
                "--out",
                str(pred_path),
            ]
        )
        assert rc == 2
        assert "non-finite" in capsys.readouterr().err
        assert not pred_path.exists()


class TestKernelSurface:
    def test_real_gaussian_center_and_radial_symmetry(self, tmp_path):
        out = tmp_path / "kg.csv"
        rc = main(
            [
                "kernel-surface",
                "--kernel",
                '{"family": "real_gaussian", "params": {"gamma": 0.8}}',
                "--range",
                "5",
                "--resolution",
                "41",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, cols = read_rows(out)
        k = cols["k_re"] + 1j * cols["k_im"]
        xs = cols["x_re"] + 1j * cols["x_im"]
        center = np.argmin(np.abs(xs))
        assert k[center] == 1.0
        np.testing.assert_array_equal(cols["k_im"], 0.0)
        # same radius, same value
        val = {}
        for x, v in zip(xs, k.real):
            key = round(abs(x) ** 2, 9)
            val.setdefault(key, v)
            assert v == pytest.approx(val[key], abs=1e-12)

    def test_complex_gaussian_diagonal(self, tmp_path):
        out = tmp_path / "kc.csv"
        rc = main(
            [
                "kernel-surface",
                "--kernel",
                '{"family": "complex_gaussian", "params": {"gamma": 80.0}}',
                "--range",
                "15",
                "--resolution",
                "31",
                "--diagonal",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, cols = read_rows(out)
        expected = np.exp(4.0 * cols["x_im"] ** 2 / 80.0)
        np.testing.assert_allclose(cols["k_re"], expected, rtol=1e-12)
        np.testing.assert_array_equal(cols["k_im"], 0.0)
        assert np.all(cols["k_re"] >= 1.0)

    @pytest.mark.parametrize(
        "kernel",
        [
            '{"family": "complex_gaussian", "params": {"gamma": 80.0}}',
            '{"family": "sum_of_separable", "params": {"terms": [{"weight": 0.3, "gamma": 8.0}]}}',
        ],
    )
    def test_diagonal_without_gram_matrices(self, tmp_path, kernel):
        # 41^2 grid points: one full complex Gram matrix alone would be 45 MB
        argv = ["kernel-surface", "--kernel", kernel, "--range", "5", "--resolution", "41",
                "--diagonal", "--out", str(tmp_path / "d.csv")]
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 4e6

    def test_independent_cross_shape(self, tmp_path):
        out = tmp_path / "ki.csv"
        rc = main(
            [
                "kernel-surface",
                "--kernel",
                '{"family": "independent", "params": {"gamma": 0.8}}',
                "--range",
                "15",
                "--resolution",
                "31",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        _, cols = read_rows(out)
        xs = cols["x_re"] + 1j * cols["x_im"]
        k = cols["k_re"] + 1j * cols["k_im"]
        for x, v in zip(xs, k):
            if x == 0:
                assert v == pytest.approx(2.0, abs=1e-12)
            elif x.imag == 0 and abs(x.real) >= 6:  # far along the real axis
                assert v.real == pytest.approx(1.0, abs=1e-12)
            elif x.real == 0 and abs(x.imag) >= 6:  # far along the imaginary axis
                assert v.real == pytest.approx(1.0, abs=1e-12)
            elif abs(x.real) >= 6 and abs(x.imag) >= 6:  # far corners
                assert abs(v) <= 1e-12


class TestBench:
    def test_synthetic1_summary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 60, "grid_resolution": 21}))
        out_dir = tmp_path / "out"
        rc = main(
            [
                "bench",
                "synthetic1",
                "--config",
                str(cfg),
                "--seed",
                "3",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert rc == 0
        summary = json.loads((out_dir / "synthetic1_summary.json").read_text())
        assert "wrkhs_mse_db" in summary
        assert "null_pseudo_mse_db" in summary
        assert summary["seed"] == 3
        assert len(summary["config_sha256"]) == 64
        header, cols = read_rows(out_dir / "synthetic1_grid.csv")
        assert header == ["x_r", "x_j", "pred_r", "pred_j", "true_r", "true_j"]
        assert len(cols["x_r"]) == 441

    def test_synthetic2_summary(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_train": 60, "grid_resolution": 21}))
        out_dir = tmp_path / "out"
        rc = main(
            ["bench", "synthetic2", "--config", str(cfg), "--out-dir", str(out_dir)]
        )
        assert rc == 0
        summary = json.loads((out_dir / "synthetic2_summary.json").read_text())
        assert "srkhs_mse_db" in summary

    def test_experiment_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": 2}))
        rc = main(
            ["bench", "synthetic1", "--config", str(cfg), "--out-dir", str(tmp_path)]
        )
        assert rc == 2

    def test_equalization_smoke_and_determinism(self, tmp_path):
        import time

        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "rho": 0.7071067811865476,
                    "trials": 2,
                    "n_samples": 500,
                    "base_seed": 11,
                    "kernel": {"family": "real_gaussian", "params": {"gamma": 8.92}},
                    "lam": 0.32,
                    "budget": None,
                }
            )
        )
        t0 = time.monotonic()
        rc1 = main(
            ["bench", "equalization", "--config", str(cfg), "--out-dir", str(tmp_path / "a")]
        )
        elapsed = time.monotonic() - t0
        rc2 = main(
            ["bench", "equalization", "--config", str(cfg), "--out-dir", str(tmp_path / "b")]
        )
        assert rc1 == 0 and rc2 == 0
        assert elapsed < 60.0
        for name in ("equalization_curve.csv", "equalization_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        summary = json.loads((tmp_path / "a" / "equalization_summary.json").read_text())
        assert math.isfinite(summary["final_mse_db"])
        header, cols = read_rows(tmp_path / "a" / "equalization_curve.csv")
        assert header == ["sample_index", "avg_mse_db"]
        assert len(cols["sample_index"]) == 496
