"""Tests for the command-line interface."""

import csv
import dataclasses
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wrkhs import (
    ChannelConfig,
    ComplexDataset,
    ComplexGaussian,
    EqualizationConfig,
    IndependentGaussian,
    KernelOverflowWarning,
    KernelSpec,
    RealGaussian,
    SyntheticConfig,
    fit_augmented,
    model_from_json,
    model_to_json,
    mse_db,
    predict,
)
from wrkhs import channel, synthetic
from wrkhs.core import NumericalError
from wrkhs.cli import (
    CSV_BLOCK_ROWS,
    _config_hash,
    _re_im_columns,
    _write_csv,
    main,
    read_dataset_csv,
    write_dataset_csv,
)
from conftest import fit_composite, predict_composite


def write_csv(path, header, rows, comment=None):
    """``csv.writer`` over rows of Python numbers: the writer every output file
    went through before the column writer, kept as its oracle."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if comment is not None:
            fh.write(comment + "\n")
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
# a kernel with a pseudo-kernel, which the online recursion refuses
SEPARATE = {"family": "separate_real_imag", "params": {"rr": {"gamma": 1.0}, "jj": {"gamma": 2.0}}}

# signed zeros and values whose repr has an exponent, in every column
GOLDEN_DATA = ComplexDataset(
    X=[[complex(-0.0, 0.1), complex(1e-05, -0.0)],
       [complex(1e+16, 2.5), complex(-3.0, 1e-05)],
       [complex(0.1, -0.0), complex(0.0, 7.0)]],
    y=[complex(-0.0, 1e+16), complex(0.1, -2.0), complex(1e-05, -0.0)],
)


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

    @pytest.mark.parametrize(
        "text, field",
        [("# a comment and no rows\n", "empty dataset file"),
         ("x_re_0,x_im_0,y_re,y_im\n1.0,0.0,1.0\n", "row 2: expected 4 fields"),
         # a row is named by its file line, the comment and the blank line counted
         ("# a comment\nx_re_0,x_im_0,y_re,y_im\n1.0,0.0,1.0,0.0\n\n1.0,oops,0.0,0.0\n",
          "row 5: could not convert")],
        ids=["empty", "short_row", "bad_value_after_comment_and_blank_line"],
    )
    def test_every_input_check_names_its_field(self, tmp_path, text, field):
        p = tmp_path / "bad.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad.csv: {field}"):
            read_dataset_csv(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        for header in (["a", "b"], ["y_re", "y_im"]):
            write_csv(p, header, [["1", "2"]])
            with pytest.raises(ValueError, match="header"):
                read_dataset_csv(p)

    def test_golden_bytes(self, tmp_path):
        # the bytes every earlier dataset file of these values has
        p = tmp_path / "d.csv"
        write_dataset_csv(p, GOLDEN_DATA)
        assert p.read_bytes().decode() == (
            "x_re_0,x_re_1,x_im_0,x_im_1,y_re,y_im\r\n"
            "-0.0,1e-05,0.1,-0.0,-0.0,1e+16\r\n"
            "1e+16,-3.0,2.5,1e-05,0.1,-2.0\r\n"
            "0.1,0.0,-0.0,7.0,1e-05,-0.0\r\n"
        )

    def test_roundtrip_keeps_every_bit(self, tmp_path):
        p = tmp_path / "d.csv"
        write_dataset_csv(p, GOLDEN_DATA)
        back = read_dataset_csv(p)
        for got, want in ((back.X, GOLDEN_DATA.X), (back.y, GOLDEN_DATA.y)):
            for part in ("real", "imag"):
                a, b = getattr(got, part), getattr(want, part)
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


B = CSV_BLOCK_ROWS
# empty, one row, and either side of one and of several block boundaries
ROW_COUNTS = [0, 1, B - 1, B, B + 1, 3 * B + 7]
# bit patterns whose text is easy to get wrong: both zeros, NaNs of either sign
# and other payloads, both infinities, subnormals, 1e-05 and 1e+16
SPECIAL_BITS = [0x0, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
                0x7FF0000000000001, 0xFFF00000DEADBEEF, 0x7FF0000000000000,
                0xFFF0000000000000, 0x1, 0x800FFFFFFFFFFFFF,
                *np.array([1e-05, 1e+16]).view(np.uint64).tolist()]
FLOAT_BITS = st.one_of(
    st.sampled_from(SPECIAL_BITS),
    st.integers(0, 2**64 - 1),
    st.floats().map(lambda v: int(np.array(v).view(np.uint64))),
)


def float_column(rng, pool, n):
    """``n`` draws from the bit patterns ``pool``, led by every special pattern
    that fits, so both zeros and the NaNs share the first block."""
    bits = np.array(pool, dtype=np.uint64)[rng.integers(len(pool), size=n)]
    lead = min(n, len(SPECIAL_BITS))
    bits[:lead] = SPECIAL_BITS[:lead]
    return bits.view(np.float64)


class TestColumnWriter:
    @settings(derandomize=True, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.sampled_from(ROW_COUNTS), pool=st.lists(FLOAT_BITS, min_size=1, max_size=12),
           n_float=st.integers(1, 4), n_int=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
           comment=st.sampled_from([None, "# config_sha256=00ff seed=7"]))
    def test_matches_csv_writer(self, tmp_path, n, pool, n_float, n_int, seed, comment):
        rng = np.random.default_rng(seed)
        columns = [float_column(rng, pool, n) for _ in range(n_float)]
        columns += [rng.integers(-(2**63), 2**63 - 1, size=n, endpoint=True) // 10 ** k
                    for k in rng.integers(0, 19, size=n_int)]
        columns = [columns[k] for k in rng.permutation(len(columns))]
        header = [f"c{k}" for k in range(len(columns))]
        _write_csv(tmp_path / "got.csv", header, columns, comment)
        write_csv(tmp_path / "want.csv", header, zip(*(c.tolist() for c in columns)), comment)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @settings(derandomize=True, max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.sampled_from(ROW_COUNTS), d=st.integers(1, 3),
           pool=st.lists(FLOAT_BITS, min_size=1, max_size=12), seed=st.integers(0, 2**32 - 1))
    def test_complex_columns_match_stacked_rows(self, tmp_path, n, d, pool, seed):
        rng = np.random.default_rng(seed)
        x = np.empty((n, d), dtype=np.complex128)
        y = np.empty(n, dtype=np.complex128)
        for part in (x.real, x.imag, y.real, y.imag):
            part[...] = float_column(rng, pool, part.size).reshape(part.shape)
        header = [f"c{k}" for k in range(2 * d + 2)]
        _write_csv(tmp_path / "got.csv", header, _re_im_columns(x, y))
        # the oracle: the same parts stacked into one table, written as rows of Python floats
        rows = map(np.ndarray.tolist, np.column_stack([x.real, x.imag, y.real, y.imag]))
        write_csv(tmp_path / "want.csv", header, rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_text_carried_across_blocks_matches_per_row_repr(self, tmp_path):
        # each block draws from one pool, so most patterns recur in every block;
        # both zeros and NaNs of several payloads and signs recur too, and a
        # pattern may skip a block and come back: each row is its values' repr
        rng = np.random.default_rng(5)
        pool = np.array(SPECIAL_BITS + rng.integers(0, 2**63, size=30).tolist(), dtype=np.uint64)
        n = 4 * B + 3
        columns = [pool[rng.integers(len(pool), size=n)].view(np.float64) for _ in range(2)]
        columns[1][B : 2 * B] = 0.5  # the second column's pool skips its second block
        columns.append(np.arange(n))
        _write_csv(tmp_path / "c.csv", ["a", "b", "i"], columns)
        lines = (tmp_path / "c.csv").read_bytes().decode().split("\r\n")
        assert lines[-1] == "" and lines[0] == "a,b,i"
        want = [",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns))]
        assert lines[1:-1] == want

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        rng = np.random.default_rng(0)

        def peak(n):
            columns = list(rng.standard_normal((6, n)))
            tracemalloc.start()
            try:
                _write_csv(tmp_path / "m.csv", [f"c{k}" for k in range(6)], columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(100_000) <= 1.2 * peak(10_000)


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

    def test_sample_whose_distances_overflow_exit_2(self, tmp_path, capsys):
        # |x|^2 overflows: the fit once ended on NaN alphas after numpy warnings
        data_path = tmp_path / "d.csv"
        write_dataset_csv(data_path, ComplexDataset(X=[1e300, 0.0], y=[1.0, 1.0]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["fit", "--dataset", str(data_path), "--kernel", KERNEL_RG,
                       "--lam", "0.1", "--out", str(tmp_path / "m.json")])
        assert rc == 2 and caught == []
        assert capsys.readouterr().err.splitlines() == [
            "input error: x has a sample of squared norm inf, above 4.49e+307: "
            "its squared distances would overflow"]
        assert not (tmp_path / "m.json").exists()

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


# one kernel per solve path of a fit: the real and the complex n x n solve, the
# split solves of two phase-aligned pairs, and the one 2n solve of a pair without a phase
FIT_PATHS = {
    "real_srkhs": {"family": "real_gaussian", "params": {"gamma": 0.8}},
    "complex_srkhs": {"family": "complex_gaussian", "params": {"gamma": 60.0}},
    "split_separate": {"family": "separate_real_imag",
                       "params": {"rr": {"gamma": 0.9}, "jj": {"gamma": 3.1}}},
    "split_sum": {"family": "sum_of_separable", "params": {"terms": [
        {"weight": 0.3, "gamma": 2.0, "scale": 1.0}, {"weight": 0.6, "gamma": 0.7, "scale": 1.0}]}},
    "2n_blocks": {"family": "real_imag_blocks", "params": {
        "rr": {"gamma": 0.9}, "jj": {"gamma": 3.1, "scale": 0.7},
        "rj": {"gamma": 2.0, "scale": 0.2}, "jr": {"gamma": 2.0, "scale": 0.2}}},
}


class TestTrainingMse:
    """``fit`` prints the training MSE of the system it solved, from the ridge
    identity: it matches a prediction on the training inputs on every path."""

    @staticmethod
    def fit(tmp_path, capsys, data, kernel, lam):
        write_dataset_csv(tmp_path / "train.csv", data)
        model_path = tmp_path / "model.json"
        argv = ["fit", "--dataset", str(tmp_path / "train.csv"), "--kernel", json.dumps(kernel),
                "--lam", repr(lam), "--out", str(model_path)]
        assert main(argv) == 0
        printed = float(capsys.readouterr().out.split("training_mse_db=")[1])
        model = model_from_json(model_path.read_text())
        return printed, mse_db(predict(model, data.X), data.y)

    @pytest.mark.parametrize("lam", [1e-3, 0.3])
    @pytest.mark.parametrize("path", FIT_PATHS)
    def test_matches_a_prediction(self, tmp_path, capsys, path, lam):
        rng = np.random.default_rng(31)
        x = 1.5 * (rng.standard_normal((60, 2)) + 1j * rng.standard_normal((60, 2)))
        y = np.sinc(x[:, 0].real) + 1j * np.cos(x[:, 1].imag) + 0.1 * rng.standard_normal(60)
        printed, want = self.fit(tmp_path, capsys, ComplexDataset(X=x, y=y), FIT_PATHS[path], lam)
        assert abs(printed - want) <= 1e-6, (printed, want)

    @pytest.mark.parametrize("path", FIT_PATHS)
    def test_matches_a_prediction_after_the_jitter_retry(self, tmp_path, capsys, path):
        # lam = 0 on three equal samples: every factorization takes the jitter,
        # and the identity reads the shift that was factored, not lam = 0
        x = np.array([1 + 1j, 1 + 1j, 0.5j, 2.0, 1 + 1j, -0.5 + 0.25j])
        y = np.arange(1.0, 7.0) - 1j
        printed, want = self.fit(tmp_path, capsys, ComplexDataset(X=x, y=y), FIT_PATHS[path], 0.0)
        assert abs(printed - want) <= 1e-2, (printed, want)


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["--range", "nan"],
            ["--range", "inf"],
            ["--range", "-1"],
            ["--range", "1", "--center", "nan+0j"],
            ["--range", "1", "--resolution", "0"],
        ],
    )
    def test_bad_grid_exit_2_before_evaluation(self, tmp_path, capsys, monkeypatch, argv):
        def no_kernel(*args, **kwargs):
            raise AssertionError("the kernel was evaluated")

        for name in ("pair", "gram", "diag"):
            monkeypatch.setattr(KernelSpec, name, no_kernel)
        out = tmp_path / "s.csv"
        rc = main(["kernel-surface", "--kernel", KERNEL_RG, *argv, "--out", str(out)])
        assert rc == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gamma, extent", [(1.0, "1e300"), (1e-300, "1e10")])
    def test_complex_gaussian_exponent_without_phase_exit_2(self, tmp_path, capsys, gamma, extent):
        # sum (z*)^2 overflows to NaN (inf - inf), or its imaginary part to inf
        kernel = json.dumps({"family": "complex_gaussian", "params": {"gamma": gamma}})
        out = tmp_path / "s.csv"
        rc = main(["kernel-surface", "--kernel", kernel, "--range", extent, "--resolution", "3",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_complex_gaussian_diagonal_saturates_with_one_warning(self, tmp_path):
        kernel = json.dumps({"family": "complex_gaussian", "params": {"gamma": 1.0}})
        out = tmp_path / "s.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["kernel-surface", "--kernel", kernel, "--diagonal", "--range", "1e300",
                       "--resolution", "3", "--out", str(out)])
        assert rc == 0
        assert [w.category for w in caught] == [KernelOverflowWarning]
        _, cols = read_rows(out)
        assert np.isfinite(cols["k_re"]).all()

    @pytest.mark.parametrize("diagonal", [[], ["--diagonal"]])
    def test_out_of_memory_exit_2(self, tmp_path, capsys, monkeypatch, diagonal):
        # a stand-in raises what numpy raises for a grid too large to hold;
        # asking for the allocation itself can get the process killed instead
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        for name in ("pair", "diag"):
            monkeypatch.setattr(KernelSpec, name, too_large)
        out = tmp_path / "s.csv"
        rc = main(["kernel-surface", "--kernel", KERNEL_RG, "--range", "1", "--resolution", "5",
                   *diagonal, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "298. GiB" in err and "Traceback" not in err
        assert not out.exists()

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

    def test_numerical_failure_in_a_trial_process_exit_3(self, tmp_path, capsys, monkeypatch):
        # the second of two trials runs in a forked child, which sends its error back
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parent = os.getpid()

        def trial(config, t):
            if os.getpid() != parent:
                raise NumericalError(f"trial {t} failed in a child")
            return np.ones(1)

        monkeypatch.setattr(channel, "_run_trial", trial)
        rc = main(bench_argv(tmp_path, "equalization", {"rho": 0.5, "trials": 2, "n_samples": 100}))
        assert rc == 3
        assert capsys.readouterr().err == "numerical failure: trial 1 failed in a child\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_tiny_kernel_width_runs_without_warning(self, tmp_path, capsys):
        # a subnormal width is valid: its far kernel values are exactly 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": 1, "n_train": 5, "grid_resolution": 3,
                                   "gamma_re": 1e-160}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["bench", "synthetic1", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""

    def test_experiment_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": 2}))
        rc = main(
            ["bench", "synthetic1", "--config", str(cfg), "--out-dir", str(tmp_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "experiment,cfg,argv",
        [
            ("synthetic1", {}, ["--seed", "-1"]),
            ("synthetic1", {"seed": 2**64}, []),
            ("synthetic2", {"seed": 1.5}, []),
            ("synthetic2", {"seed": "3"}, []),
            ("synthetic1", {"seed": True}, []),
            ("equalization", {"rho": 0.5}, ["--seed", "-1"]),
            ("equalization", {"rho": 0.5, "trials": 2, "base_seed": 2**64 - 1}, []),
            ("equalization", {"rho": 0.5, "base_seed": 0.5}, []),
        ],
    )
    def test_bad_seed_exit_2(self, tmp_path, capsys, experiment, cfg, argv):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        rc = main(["bench", experiment, "--config", str(path), "--out-dir", str(tmp_path), *argv])
        assert rc == 2
        assert "seed must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [2.5, True, 0])
    def test_bad_budget_exit_2(self, tmp_path, capsys, budget):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho": 0.5, "trials": 1, "n_samples": 100, "budget": budget}))
        rc = main(["bench", "equalization", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "budget must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "equalization_summary.json").exists()

    @pytest.mark.parametrize(
        "experiment,cfg",
        [
            ("equalization", {"filter_length": 5.0}),
            ("equalization", {"delay": 2.0}),
            ("equalization", {"n_samples": 100.0}),
            ("equalization", {"trials": True}),
            ("equalization", {"filter_length": True}),
            ("synthetic1", {"experiment": True}),
            ("synthetic1", {"experiment": 1.0}),
            ("synthetic1", {"n_train": 60.0}),
            ("synthetic2", {"grid_resolution": 21.0}),
            ("synthetic2", {"n_train": False}),
        ],
    )
    def test_int_field_exit_2_before_any_trial(
        self, tmp_path, capsys, monkeypatch, experiment, cfg
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(channel, "_run_trial", no_trial)
        monkeypatch.setattr(synthetic, "draw_training_inputs", no_trial)
        (field,) = cfg
        if experiment == "equalization":
            cfg = {"rho": 0.5, "trials": 1, "n_samples": 100, **cfg}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = main(["bench", experiment, "--config", str(path), "--out-dir", str(out)])
        assert rc == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cfg", [[1, 2], "x"])
    @pytest.mark.parametrize("experiment", ["synthetic1", "synthetic2", "equalization"])
    def test_non_object_config_exit_2(self, tmp_path, capsys, experiment, cfg):
        rc = main(bench_argv(tmp_path, experiment, cfg))
        assert rc == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"taps": [1, 2]}, "taps must be a list of 2 [re, im] pairs"),
            ({"taps": [[1, 0], [0, 1], [1, 1]]}, "taps must be a list of 2 [re, im] pairs"),
            ({"c2": [[1, 0], [0, 1]]}, "c2 must be one [re, im] pair"),
            ({"budget": 0}, "budget must be an integer >= 1"),
            ({"lam": -1}, "ridge weight must be finite and >= 0"),
            ({"kernel": SEPARATE}, "family 'separate_real_imag' has a pseudo-kernel"),
            ({"snr_db": float("nan")}, "snr_db must be finite"),
        ],
    )
    def test_equalization_config_refused_before_any_trial(
        self, tmp_path, capsys, monkeypatch, cfg, message
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(channel, "_run_trial", no_trial)
        rc = main(bench_argv(tmp_path, "equalization",
                             {"rho": 0.5, "trials": 1, "n_samples": 100, **cfg}))
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "cfg",
        [
            {"snr_db": 4000},  # 10^(snr_db/10) overflows
            {"snr_db": -4000},  # 10^(snr_db/10) is 0
            {"source_scale": float("inf")},
            {"source_scale": float("nan")},
            {"taps": [[float("inf"), 0.0], [0.5, 0.0]]},
            {"c2": [float("nan"), 0.0]},
            {"c3": [0.0, float("-inf")]},
        ],
        ids=["snr_db-huge", "snr_db-tiny", "source_scale-inf", "source_scale-nan",
             "taps-inf", "c2-nan", "c3-inf"],
    )
    def test_equalization_field_refused_by_name(self, tmp_path, capsys, monkeypatch, cfg):
        # refused when the config is built, not by a trial's overflow, traceback or warning
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(channel, "_run_trial", no_trial)
        (field,) = cfg
        rc = main(bench_argv(tmp_path, "equalization",
                             {"rho": 0.5, "trials": 1, "n_samples": 100, **cfg}))
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{field} must be finite" in err
        assert "Traceback" not in err and "Warning" not in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("trials", [1, 2])
    @pytest.mark.parametrize(
        "cfg",
        [{"source_scale": 1e300}, {"c3": [1e300, 0.0]}, {"c2": [1e200, 0.0]}],
        ids=["source_scale-1e300", "c3-1e300", "c2-1e200"],
    )
    def test_equalization_channel_overflow_refused(self, tmp_path, capfd, cfg, trials):
        # finite fields whose channel stream overflows: a trial refuses it by
        # name, with no numpy warning from this process or a forked one
        rc = main(bench_argv(tmp_path, "equalization",
                             {"rho": 0.5, "trials": trials, "n_samples": 100, **cfg}))
        err = capfd.readouterr().err
        assert rc == 2
        assert "channel output" in err
        assert "Traceback" not in err and "Warning" not in err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("lam", [-1, float("inf")])
    @pytest.mark.parametrize("experiment", ["synthetic1", "synthetic2"])
    def test_synthetic_lam_refused_before_any_trial(
        self, tmp_path, capsys, monkeypatch, experiment, lam
    ):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(synthetic, "draw_training_inputs", no_trial)
        rc = main(bench_argv(tmp_path, experiment, {"lam": lam}))
        assert rc == 2
        assert "ridge weight must be finite and >= 0" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "cfg,message",
        [
            ({"input_hi": "inf"}, "input_hi must be finite"),
            ({"input_lo": "-inf"}, "input_lo must be finite"),
            ({"input_lo": "nan"}, "input_lo must be finite"),
            ({"input_lo": -1e308, "input_hi": 1e308}, "input_hi - input_lo must be finite"),
            ({"gamma_re": -1.0}, "gamma_re must be finite and > 0"),
            ({"gamma_im": 0}, "gamma_im must be finite and > 0"),
            ({"gamma": "inf"}, "gamma must be finite and > 0"),
            ({"gamma_re": 1e200}, "gamma_re must be finite and > 0"),
            ({"gamma": 1e-200}, "gamma must be finite and > 0"),
            ({"omega": "inf"}, "omega must lie in [0, 1)"),
            ({"omega": "nan"}, "omega must lie in [0, 1)"),
            ({"omega": 1.0}, "omega must lie in [0, 1)"),
            ({"omega": -0.1}, "omega must lie in [0, 1)"),
        ],
    )
    @pytest.mark.parametrize("experiment", ["synthetic1", "synthetic2"])
    def test_synthetic_field_refused_before_any_trial(
        self, tmp_path, capsys, monkeypatch, experiment, cfg, message
    ):
        # refused when the config is built, naming the field, not by an uncaught overflow
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(synthetic, "draw_training_inputs", no_trial)
        rc = main(bench_argv(tmp_path, experiment, cfg))
        assert rc == 2
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_largest_seeds_accepted(self):
        assert SyntheticConfig(experiment=1, seed=2**64 - 1).seed == 2**64 - 1
        assert ChannelConfig(rho=0.5, trials=2, base_seed=2**64 - 2).trials == 2

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


# Changed values for every field of the two benchmark configs; a field added
# to a config without an entry here fails test_every_field_changes_the_hash.
SYNTHETIC_CHANGED = {
    "experiment": 2, "seed": 1, "n_train": 201, "input_lo": -4.0, "input_hi": 6.0,
    "grid_resolution": 102, "lam": 1e-3, "gamma_re": 1.5, "gamma_im": 3.0, "gamma": 2.5,
    "omega": 0.4,
}
CHANNEL_CHANGED = {
    "rho": 0.6, "snr_db": 20.0, "taps": (1.0 + 0j, 0.5j), "c2": 0.1j, "c3": 0j,
    "source_scale": 0.8, "filter_length": 4, "delay": 1, "n_samples": 600, "trials": 3,
    "base_seed": 7,
}
EQUALIZATION_CHANGED = {"kernel": RealGaussian(gamma=2.0), "lam": 0.5, "budget": 40}

# an int in a float field is the float's twin, so both are drawn
REAL = st.one_of(st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False))
POSITIVE = st.one_of(st.integers(1, 10**6), st.floats(min_value=1e-300, max_value=1e300))
# a length-scale g whose kernel width 2 g^2 is finite and > 0
LENGTH_SCALE = st.one_of(st.integers(1, 10**6), st.floats(min_value=1e-150, max_value=1e150))
COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)
# an SNR whose power ratio 10^(snr_db/10) is a finite positive float
SNR_DB = st.one_of(st.integers(-3000, 3000), st.floats(-3000, 3000))


@st.composite
def synthetic_configs(draw):
    lo, hi = sorted(draw(st.lists(REAL, min_size=2, max_size=2, unique=True)))
    assume(math.isfinite(hi - lo))  # a config refuses an input square of infinite width
    return SyntheticConfig(
        experiment=draw(st.sampled_from([1, 2])),
        seed=draw(st.integers(0, 2**64 - 1)),
        n_train=draw(st.integers(1, 10**6)),
        input_lo=lo,
        input_hi=hi,
        grid_resolution=draw(st.integers(2, 10**4)),
        lam=draw(st.one_of(st.just(0), POSITIVE)),
        **{name: draw(LENGTH_SCALE) for name in ("gamma_re", "gamma_im", "gamma")},
        omega=draw(st.one_of(st.just(0), st.floats(0, 1, exclude_max=True))),
    )


@st.composite
def equalization_configs(draw):
    filter_length, delay, trials = (draw(st.integers(lo, 100)) for lo in (1, 0, 1))
    channel = ChannelConfig(
        rho=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
        snr_db=draw(SNR_DB),
        taps=draw(st.tuples(COMPLEX, COMPLEX)),
        c2=draw(COMPLEX),
        c3=draw(COMPLEX),
        source_scale=draw(REAL),
        filter_length=filter_length,
        delay=delay,
        n_samples=draw(st.integers(filter_length + delay + 1, 10**5)),
        trials=trials,
        base_seed=draw(st.integers(0, 2**64 - trials)),
    )
    kernel = draw(st.one_of(
        st.builds(RealGaussian, gamma=POSITIVE, scale=st.one_of(st.just(0), POSITIVE)),
        st.builds(ComplexGaussian, gamma=POSITIVE),
        st.builds(IndependentGaussian, gamma=POSITIVE),
    ))
    budget = draw(st.one_of(st.none(), st.integers(1, 10**4)))
    return EqualizationConfig(channel=channel, kernel=kernel, lam=draw(POSITIVE), budget=budget)


def field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


class TestConfigRule:
    """A benchmark config serializes one key per dataclass field, and its hash
    follows every field."""

    def test_synthetic_keys_are_fields(self):
        assert set(SyntheticConfig(experiment=1).to_config()) == field_names(SyntheticConfig)
        assert SYNTHETIC_CHANGED.keys() == field_names(SyntheticConfig)

    def test_equalization_keys_are_fields(self):
        cfg = EqualizationConfig(channel=ChannelConfig(rho=0.5)).to_config()
        top = field_names(EqualizationConfig) - {"channel"}
        assert set(cfg) == field_names(ChannelConfig) | top
        assert CHANNEL_CHANGED.keys() == field_names(ChannelConfig)
        assert EQUALIZATION_CHANGED.keys() == top

    def test_every_field_changes_the_hash(self):
        syn = SyntheticConfig(experiment=1)
        base = _config_hash(syn.to_config())
        for name, value in SYNTHETIC_CHANGED.items():
            changed = dataclasses.replace(syn, **{name: value})
            assert _config_hash(changed.to_config()) != base, name
        eq = EqualizationConfig(channel=ChannelConfig(rho=0.5, trials=2, n_samples=500))
        base = _config_hash(eq.to_config())
        for name, value in CHANNEL_CHANGED.items():
            ch = dataclasses.replace(eq.channel, **{name: value})
            changed = dataclasses.replace(eq, channel=ch)
            assert _config_hash(changed.to_config()) != base, name
            assert EqualizationConfig.from_config(changed.to_config()) == changed, name
        for name, value in EQUALIZATION_CHANGED.items():
            changed = dataclasses.replace(eq, **{name: value})
            assert _config_hash(changed.to_config()) != base, name
            assert EqualizationConfig.from_config(changed.to_config()) == changed, name

    @settings(deadline=None, max_examples=60)
    @given(config=st.one_of(synthetic_configs(), equalization_configs()))
    def test_round_trip_keeps_config_and_hash(self, config):
        back = type(config).from_config(json.loads(json.dumps(config.to_config())))
        assert back == config
        assert _config_hash(back.to_config()) == _config_hash(config.to_config())

    @pytest.mark.parametrize(
        "config,twin",
        [
            (RealGaussian(gamma=2), RealGaussian(gamma=2.0)),
            (EqualizationConfig(channel=ChannelConfig(rho=0.5, snr_db=16)),
             EqualizationConfig(channel=ChannelConfig(rho=0.5, snr_db=16.0))),
            (EqualizationConfig(channel=ChannelConfig(rho=0.5), kernel=RealGaussian(gamma=2)),
             EqualizationConfig(channel=ChannelConfig(rho=0.5), kernel=RealGaussian(gamma=2.0))),
            (SyntheticConfig(experiment=1, lam=1), SyntheticConfig(experiment=1, lam=1.0)),
            (SyntheticConfig.from_config({"experiment": 1, "lam": "1e-6"}),
             SyntheticConfig(experiment=1, lam=1e-6)),
        ],
        ids=["gamma", "snr_db", "kernel", "lam", "numeric-string"],
    )
    def test_float_twins_hash_equally(self, config, twin):
        assert config == twin
        assert _config_hash(config.to_config()) == _config_hash(twin.to_config())

    def test_numeric_string_lam_hashes_as_its_number(self, tmp_path):
        cfg = {"lam": "1e-6", "n_train": 30, "grid_resolution": 5}
        assert main(bench_argv(tmp_path, "synthetic1", cfg)) == 0
        summary = json.loads((tmp_path / "out" / "synthetic1_summary.json").read_text())
        assert summary["config"]["lam"] == 1e-6
        assert summary["config_sha256"] == (
            "c8e216c6398b5d7f6155ddd36b276859b5b139cc8eeaac6536eeb4f63bd1fb8a"
        )

    def test_pinned_hashes(self):
        # the hashes every earlier benchmark output of these configs carries
        assert _config_hash(SyntheticConfig(experiment=1).to_config()) == (
            "ed9a5f5b5b878543db000dd02951a37b8cd61b6b26e5953fded4a16f42d19a1e"
        )
        # the equalization-budget benchmark workload at seed 0
        cfg = {
            "rho": 2**-0.5, "n_samples": 2000, "trials": 2, "filter_length": 5, "delay": 2,
            "snr_db": 16.0, "budget": 500, "lam": 0.32, "base_seed": 0,
            "kernel": {"family": "real_gaussian", "params": {"gamma": 8.92, "scale": 1.0}},
        }
        assert _config_hash(EqualizationConfig.from_config(cfg).to_config()) == (
            "2a5bc1b7aedd92e38368e25ad0f5f906b674cd52fe3a8b92d17b0305d4fa997e"
        )


def fit_small_model(tmp_path):
    """Fit a two-sample model; return the dataset and model paths."""
    data_path = tmp_path / "train.csv"
    write_csv(data_path, ["x_re_0", "x_im_0", "y_re", "y_im"],
              [["0.0", "0.0", "1.0", "0.0"], ["0.5", "0.25", "0.0", "1.0"]])
    model_path = tmp_path / "m.json"
    argv = ["fit", "--dataset", str(data_path), "--kernel", KERNEL_RG, "--lam", "0.1"]
    assert main(argv + ["--out", str(model_path)]) == 0
    return data_path, model_path


class TestKernelFile:
    """``--kernel`` names a JSON file or holds the JSON itself, with the same result."""

    @staticmethod
    def argv(tmp_path, command):
        if command == "kernel-surface":
            return ["kernel-surface", "--range", "1", "--resolution", "5"]
        data_path = tmp_path / "d.csv"
        write_csv(data_path, ["x_re_0", "x_im_0", "y_re", "y_im"],
                  [["0.0", "0.0", "1.0", "0.0"], ["0.5", "0.25", "0.0", "1.0"],
                   ["-1.0", "0.75", "0.5", "-0.5"]])
        return ["fit", "--dataset", str(data_path), "--lam", "0.1"]

    @pytest.mark.parametrize("command", ["fit", "kernel-surface"])
    def test_file_writes_the_same_bytes_as_inline_json(self, tmp_path, command):
        kernel_path = tmp_path / "kernel.json"
        kernel_path.write_text(json.dumps(SEPARATE), encoding="utf-8")
        outs = [tmp_path / "from_file", tmp_path / "inline"]
        for kernel, out in zip((str(kernel_path), json.dumps(SEPARATE)), outs):
            assert main(self.argv(tmp_path, command) + ["--kernel", kernel, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("command", ["fit", "kernel-surface"])
    def test_missing_file_exit_2(self, tmp_path, command):
        out = tmp_path / "out"
        argv = self.argv(tmp_path, command) + ["--kernel", str(tmp_path / "nope.json")]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()


class TestGoldenBytes:
    """What the file layer writes, pinned to the bytes earlier outputs carry."""

    def test_model_json(self):
        # far-apart samples give an exactly diagonal Gram: alpha = y / (1 + lam)
        data = ComplexDataset(X=[[0j], [complex(100.0, -0.0)]],
                              y=[complex(1.0, -0.0), -0.5 + 0.25j])
        assert model_to_json(fit_augmented(data, RealGaussian(gamma=1.0), 1.0)) == (
            '{"alpha": [[0.5, -0.0], [-0.25, 0.125]], "inputs": {"shape": [2, 1], '
            '"values": [[0.0, 0.0], [100.0, -0.0]]}, "kernel": {"family": "real_gaussian", '
            '"params": {"gamma": 1.0, "scale": 1.0}}, "lambda": 1.0}'
        )

    def test_equalization_config(self):
        taps = (complex(-0.0, 0.25), complex(1.0, -0.0))
        config = EqualizationConfig(channel=ChannelConfig(rho=0.5, taps=taps, c2=0.1j), lam=0.5)
        assert json.dumps(config.to_config(), sort_keys=True) == (
            '{"base_seed": 0, "budget": null, "c2": [0.0, 0.1], "c3": [0.12, 0.09], '
            '"delay": 2, "filter_length": 5, "kernel": {"family": "real_gaussian", '
            '"params": {"gamma": 8.92, "scale": 1.0}}, "lam": 0.5, "n_samples": 5000, '
            '"rho": 0.5, "snr_db": 16.0, "source_scale": 0.7, "taps": [[-0.0, 0.25], '
            '[1.0, -0.0]], "trials": 500}'
        )
        back = EqualizationConfig.from_config(config.to_config())
        assert back == config and hash(back) == hash(config)
        assert [np.signbit([t.real, t.imag]).tolist() for t in back.channel.taps] == [
            [True, False], [False, True]
        ]

    def test_curve_sample_index_is_an_integer(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rho": 0.5, "trials": 1, "n_samples": 40, "budget": 10}))
        argv = ["bench", "equalization", "--config", str(path), "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        with open(tmp_path / "equalization_curve.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[2:]
        assert [r[0] for r in rows] == [str(i) for i in range(36)]
        assert all(r[1] == repr(float(r[1])) for r in rows)


def bench_argv(tmp_path, experiment, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["bench", experiment, "--config", str(path), "--out-dir", str(tmp_path / "out")]


SOS_FALSE_WEIGHT = {"family": "sum_of_separable",
                    "params": {"terms": [{"weight": False, "gamma": 1.0}]}}


class TestBoolIsNotANumber:
    """A bool where a float is expected exits 2, names the field and writes nothing."""

    @pytest.mark.parametrize(
        "experiment,cfg,field",
        [
            ("synthetic1", {"lam": True}, "lam"),
            ("synthetic1", {"input_lo": True}, "input_lo"),
            ("synthetic2", {"omega": False}, "omega"),
            ("equalization", {"rho": True}, "rho"),
            ("equalization", {"rho": 0.5, "lam": True}, "lam"),
            ("equalization", {"rho": 0.5, "snr_db": False}, "snr_db"),
            ("equalization", {"rho": 0.5, "kernel": SOS_FALSE_WEIGHT}, "weight"),
        ],
    )
    def test_bench(self, tmp_path, capsys, experiment, cfg, field):
        if experiment == "equalization":
            cfg = {"trials": 1, "n_samples": 100, **cfg}
        rc = main(bench_argv(tmp_path, experiment, cfg))
        assert rc == 2
        assert f"{field} must be a number" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "kernel,field",
        [
            ({"family": "real_gaussian", "params": {"gamma": True, "scale": False}}, "gamma"),
            ({"family": "real_gaussian", "params": {"gamma": 1.0, "scale": False}}, "scale"),
            ({"family": "separate_real_imag",
              "params": {"rr": {"gamma": 1.0}, "jj": {"gamma": True}}}, "gamma"),
            (SOS_FALSE_WEIGHT, "weight"),
        ],
    )
    @pytest.mark.parametrize("command", ["kernel-surface", "fit"])
    def test_kernel(self, tmp_path, capsys, kernel, field, command):
        out = tmp_path / "out"
        if command == "fit":
            data_path = tmp_path / "d.csv"
            write_csv(data_path, ["x_re_0", "x_im_0", "y_re", "y_im"],
                      [["0.0", "0.0", "1.0", "0.0"]])
            argv = ["fit", "--dataset", str(data_path), "--lam", "0.1"]
        else:
            argv = ["kernel-surface", "--range", "1", "--resolution", "3"]
        rc = main(argv + ["--kernel", json.dumps(kernel), "--out", str(out)])
        assert rc == 2
        assert f"{field} must be a number" in capsys.readouterr().err
        assert not out.exists()

    def test_model_lambda(self, tmp_path, capsys):
        data_path, model_path = fit_small_model(tmp_path)
        payload = json.loads(model_path.read_text())
        payload["lambda"] = True
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model_path), "--dataset", str(data_path),
                   "--out", str(out)])
        assert rc == 2
        assert "ridge weight must be a number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "shape", [[-1, 1], [-2, -1], [True, 2], [2, True], [2.0, 1], [3, 1], [0, 1], [2],
                  [2, 1, 1], "2x1", None],
    )
    def test_model_input_shape(self, tmp_path, capsys, shape):
        # two integers >= 1, no bool, whose product is the number of stored inputs (2)
        data_path, model_path = fit_small_model(tmp_path)
        payload = json.loads(model_path.read_text())
        assert payload["inputs"]["shape"] == [2, 1]
        payload["inputs"]["shape"] = shape
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model_path), "--dataset", str(data_path),
                   "--out", str(out)])
        assert rc == 2
        assert "inputs.shape must be two integers >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedPairs:
    """A complex JSON value that is not [re, im] pairs exits 2 naming the field."""

    @pytest.mark.parametrize(
        "alpha",
        [
            [[0.5, 0.0], [0.5]],
            [[0.5, 0.0, 0.0], [0.5, 0.0, 0.0]],
            [[0.5, 0.0], ["x", 0.0]],
            [[0.5, 0.0], [True, 0.0]],
        ],
        ids=["ragged", "three-entry", "string", "bool"],
    )
    def test_predict_alpha(self, tmp_path, capsys, alpha):
        data_path, model_path = fit_small_model(tmp_path)
        payload = json.loads(model_path.read_text())
        payload["alpha"] = alpha
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "preds.csv"
        rc = main(["predict", "--model", str(model_path), "--dataset", str(data_path),
                   "--out", str(out)])
        assert rc == 2
        assert "alpha must be an [re, im] pair" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg,field", [({"c2": [0.1]}, "c2"), ({"taps": "x"}, "taps"), ({"c3": [True, 0.5]}, "c3")]
    )
    def test_equalization_config(self, tmp_path, capsys, cfg, field):
        rc = main(bench_argv(tmp_path, "equalization", {"rho": 0.5, "trials": 1, **cfg}))
        assert rc == 2
        assert f"{field} must be an [re, im] pair" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []


# kernels whose coefficient moduli sum past the largest float: K's values would be inf
OVERFLOWING_KERNELS = [
    {"family": "sum_of_separable",
     "params": {"terms": [{"weight": 0.5, "gamma": 1.0, "scale": 1e308}]}},
    {"family": "separate_real_imag",
     "params": {"rr": {"gamma": 1.0, "scale": 1e308}, "jj": {"gamma": 2.0, "scale": 1e308}}},
]
# a finite kernel whose k(x, x) + 1.7e308 overflows
HUGE_RG = {"family": "real_gaussian", "params": {"gamma": 1.0, "scale": 1e308}}


class TestOverflowRefused:
    """A kernel whose coefficients overflow, and a ridge weight that overflows the
    shifted diagonal, exit 2 naming them, with no warning and no file written."""

    @staticmethod
    def fit_argv(tmp_path, kernel, lam):
        data_path = tmp_path / "d.csv"
        write_csv(data_path, ["x_re_0", "x_im_0", "y_re", "y_im"],
                  [["0.1", "0.2", "1.0", "0.5"], ["-0.3", "0.4", "0.2", "-0.1"],
                   ["0.5", "-0.6", "-0.7", "0.3"]])
        return ["fit", "--dataset", str(data_path), "--kernel", json.dumps(kernel),
                "--lam", lam, "--out", str(tmp_path / "out")]

    @staticmethod
    def assert_refused(tmp_path, rc, err, message):
        assert rc == 2
        assert message in err
        assert "Traceback" not in err and "Warning" not in err
        out = tmp_path / "out"
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "kernel-surface", "predict", "bench"])
    @pytest.mark.parametrize("kernel", OVERFLOWING_KERNELS,
                             ids=[k["family"] for k in OVERFLOWING_KERNELS])
    def test_kernel_coefficients(self, tmp_path, capfd, kernel, command):
        if command == "fit":
            argv = self.fit_argv(tmp_path, kernel, "0.1")
        elif command == "kernel-surface":
            argv = ["kernel-surface", "--range", "1", "--resolution", "2",
                    "--kernel", json.dumps(kernel), "--out", str(tmp_path / "out")]
        elif command == "predict":
            data_path, model_path = fit_small_model(tmp_path)
            payload = json.loads(model_path.read_text())
            payload["kernel"] = kernel
            model_path.write_text(json.dumps(payload))
            argv = ["predict", "--model", str(model_path), "--dataset", str(data_path),
                    "--out", str(tmp_path / "out")]
        else:
            argv = bench_argv(tmp_path, "equalization",
                              {"rho": 0.5, "trials": 1, "n_samples": 60, "kernel": kernel})
        rc = main(argv)
        self.assert_refused(tmp_path, rc, capfd.readouterr().err,
                            f"{kernel['family']} kernel coefficients overflow")

    def test_fit_ridge_weight(self, tmp_path, capfd, caplog):
        rc = main(self.fit_argv(tmp_path, HUGE_RG, "1.7e308"))
        self.assert_refused(tmp_path, rc, capfd.readouterr().err,
                            "ridge weight 1.7e+308 overflows")
        assert not caplog.records  # refused before any factorization, so no jitter retry

    @pytest.mark.parametrize("budget", [None, 8])
    def test_bench_ridge_weight(self, tmp_path, capfd, budget):
        cfg = {"rho": 0.5, "trials": 1, "n_samples": 60, "lam": 1.7e308, "budget": budget,
               "kernel": HUGE_RG}
        rc = main(bench_argv(tmp_path, "equalization", cfg))
        self.assert_refused(tmp_path, rc, capfd.readouterr().err,
                            "ridge weight 1.7e+308 overflows")

    def test_a_unit_kernel_fits_at_the_weight(self, tmp_path, capsys):
        unit = {"family": "real_gaussian", "params": {"gamma": 1.0}}
        assert main(self.fit_argv(tmp_path, unit, "1.7e308")) == 0
        mse_db = float(capsys.readouterr().out.split("training_mse_db=")[1])
        assert math.isfinite(mse_db)
        assert (tmp_path / "out").exists()
