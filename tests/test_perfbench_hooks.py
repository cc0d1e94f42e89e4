"""The traced benchmark run replaces library names by attribute; this checks
that every name it replaces still exists and is put back afterwards."""

import importlib
import sys
from pathlib import Path

import numpy as np

from wrkhs import channel, cli, core, kernels, online, regression, synthetic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
try:
    spans = importlib.import_module("spans")
finally:
    sys.path.pop(0)

# every object whose attributes the span wrappers may replace
PATCHABLE = (cli, core, kernels, online, regression, synthetic, channel,
             kernels.KernelSpec, online.Wrkls)


def test_spans_wrap_a_fit_and_restore_every_attribute(tmp_path):
    data_path = tmp_path / "d.csv"
    data_path.write_text("x_re_0,x_im_0,y_re,y_im\n0.0,0.0,1.0,0.0\n0.5,0.25,0.0,1.0\n")
    before = [dict(vars(obj)) for obj in PATCHABLE]
    rec = spans.Recorder()
    with spans.installed(rec):
        assert any(vars(obj) != b for obj, b in zip(PATCHABLE, before))
        # the last kernel has no phase: the CLI fit solves its one 2n system in place
        for kernel in ('{"family": "real_gaussian", "params": {"gamma": 1.0}}',
                       '{"family": "separate_real_imag", '
                       '"params": {"rr": {"gamma": 1.0}, "jj": {"gamma": 2.0}}}',
                       '{"family": "real_imag_blocks", "params": {'
                       '"rr": {"gamma": 0.9}, "jj": {"gamma": 3.1, "scale": 0.7}, '
                       '"rj": {"gamma": 2.0, "scale": 0.2}, "jr": {"gamma": 2.0, "scale": 0.2}}}'):
            argv = ["fit", "--dataset", str(data_path), "--kernel", kernel, "--lam", "0.1"]
            assert cli.main(argv + ["--out", str(tmp_path / "m.json")]) == 0
        # a fit evaluates no kernel after its solve; the predict command does
        assert cli.main(["predict", "--model", str(tmp_path / "m.json"), "--dataset",
                         str(data_path), "--out", str(tmp_path / "p.csv")]) == 0
        # no package path solves a full matrix; the name the wrapper patches still does
        regression.hermitian_solve(np.eye(2), np.ones(2))
    names = [s["name"] for s in rec.spans]
    assert names.count("regression.fit") == 3
    assert {"cli.read_csv", "regression.predict", "core.hermitian_solve"} <= set(names)
    for obj, saved in zip(PATCHABLE, before):
        after = vars(obj)
        assert after.keys() == saved.keys(), obj
        assert all(after[k] is v for k, v in saved.items()), obj
