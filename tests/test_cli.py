import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvk import builtin
from mvk.backends import EXP_FLOOR
from mvk.cli import CHUNK, _write_csv, counterexample_report, example2_run, main
from mvk.decomposition import congruence_split
from mvk.interpolation import LIN_TOL

# A coupled kernel that does not split (three full-rank coefficients whose
# whitened forms do not commute) with 40 training and 12 query points in
# [-1, 1]^2; CI runs the console script on the same files.
FIXTURE = Path(__file__).parent / "data"


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def read_header(path):
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if line.startswith("#")]


def write_kernel(path, kernel):
    path.write_text(json.dumps(kernel.to_dict()))
    return str(path)


def write_data(path, X, F=None):
    X = np.atleast_2d(X)
    cols = [f"x_{j + 1}" for j in range(X.shape[1])]
    rows = X
    if F is not None:
        cols += [f"f_{j + 1}" for j in range(F.shape[1])]
        rows = np.hstack([X, F])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for r in rows:
            w.writerow([repr(float(v)) for v in r])
    return str(path)


def test_counterexample_report_values():
    rep = counterexample_report()
    assert rep["base_lam_min"] > 0
    assert rep["square_lam_min"] < 0
    assert rep["square_matrix"].shape == (4, 4)


def test_counterexample_command(tmp_path, capsys):
    assert main(["counterexample", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lambda_min" in out
    text = (tmp_path / "counterexample.txt").read_text()
    assert "square Gramian lambda_min" in text


def test_example1_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"centers": {"n": 6}}))
    out = tmp_path / "o"
    assert main(["example1", "--config", str(cfg), "--out", str(out)]) == 0
    header, rows = read_csv(out / "decay.csv")
    assert header == ["N", "err_k1", "err_k2", "err_k3", "err_k4"]
    assert [r[0] for r in rows] == [str(n) for n in range(1, 7)]
    errs = np.array([[float(v) for v in r[1:]] for r in rows])
    assert np.all(errs > 0)
    # more centers never hurt by much on this smooth target
    assert errs[-1].max() < errs[0].max()
    assert "covariance eigenvalues" in (out / "summary.txt").read_text()
    assert read_header(out / "decay.csv")[0].startswith("# mvk ")


def test_example1_tuning_tables(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "centers": {"n": 4},
                "tuning": {"enabled": True, "grid": {"size": 4}},
            }
        )
    )
    out = tmp_path / "o"
    assert main(["example1", "--config", str(cfg), "--out", str(out)]) == 0
    for name, n_groups in [("k1", 1), ("k2", 3), ("k3", 2), ("k4", 3)]:
        header, rows = read_csv(out / f"tuning_{name}.csv")
        assert header[0] == "candidate"
        assert header[-1] == "max_validation_error"
        assert len(header) == n_groups + 2
        assert len(rows) == 4**n_groups


def test_example2_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"centers": {"n": 8}}))
    out = tmp_path / "o"
    assert main(["example2", "--config", str(cfg), "--out", str(out)]) == 0
    for norm in ("two", "inf", "one"):
        header, rows = read_csv(out / f"bounds_{norm}_norm.csv")
        assert header == ["i", "max_error", "delta1", "delta2"]
        assert len(rows) == 8
        for r in rows:
            err, d1, d2 = (float(v) for v in r[1:])
            assert err <= d1 * (1 + 1e-9)
            assert d1 <= d2 * (1 + 1e-9)
    # the header records the pseudo-inverse cutoff example2 runs with
    for name in ("bounds_two_norm", "bounds_inf_norm", "bounds_one_norm", "residual"):
        assert read_header(out / f"{name}.csv")[4] == (
            "# tolerances: rank_tol=1e-08 psd_tol=1e-10 lin_tol=1e-08"
        )
    header, rows = read_csv(out / "residual.csv")
    assert header == ["i", "residual_norm", "f_norm"]
    r_norms = [float(r[1]) for r in rows]
    assert all(a >= b - 1e-8 for a, b in zip(r_norms, r_norms[1:]))


@pytest.mark.parametrize("seed", [42, 4, 9])
def test_example2_bounds_hold_through_the_split(seed):
    # example2's kernel is coupled but splits by congruence into three
    # scalar kernels; at every prefix and test point the measured error
    # stays below delta1 (seeds 4 and 9 come within 6 % of it)
    for rec in example2_run(seed=seed, n_centers=100):
        assert rec["solver_info"]["blocks"] == 3
        assert rec["residual_norm"] <= rec["f_norm"]
        for norm in ("two", "inf", "one"):
            err, d1, d2 = (rec[k][norm] for k in ("errors", "delta1", "delta2"))
            assert np.all(err <= d1), (rec["i"], norm)
            assert np.all(d1 <= d2), (rec["i"], norm)


def test_example2_with_the_sites_among_the_centers():
    # --include-sites puts the 5 sites among the last 5 centers, so the
    # union of sites and centers in ||f - s|| repeats points
    recs = example2_run(include_sites=True)
    for rec in recs:
        assert rec["residual_norm"] <= rec["f_norm"]
        for norm in ("two", "inf", "one"):
            err, d1, d2 = (rec[k][norm] for k in ("errors", "delta1", "delta2"))
            assert np.all(err <= d1), (rec["i"], norm)
            assert np.all(d1 <= d2), (rec["i"], norm)
    # with all sites among the centers f - s is a small fraction of f
    assert recs[-1]["residual_norm"] <= 1e-3 * recs[-1]["f_norm"]


def _csv_writer_reference(path, header, names, rows):
    """What csv.writer writes: %.17g floats, None as an empty field."""
    with open(path, "w", newline="") as fh:
        for line in header:
            fh.write(line + "\n")
        w = csv.writer(fh)
        w.writerow(names)
        for row in rows:
            w.writerow(["" if v is None else f"{v:.17g}" if isinstance(v, float) else v
                        for v in row])


def test_write_csv_matches_csv_writer(tmp_path):
    # the columnar writer writes what csv.writer wrote with %.17g floats,
    # including a row with a None (an empty field), nan and -0.0
    rows = [(0, 0.1, 1e-300, -0.0), (1, None, float("nan"), 2.0),
            (2, 1 / 3, float("inf"), 123456789.0)]
    path = tmp_path / "t.csv"
    _write_csv(path, ["# h"], ["i", "a", "b", "c"], list(zip(*rows)))
    ref = tmp_path / "ref.csv"
    _csv_writer_reference(ref, ["# h"], ["i", "a", "b", "c"], rows)
    assert path.read_bytes() == ref.read_bytes()


# 0.0 next to -0.0, nan, infinities, the smallest subnormal and the
# smallest normal, other subnormals
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                  -5e-324, 2.2250738585072014e-308, 1e-310, -3e-320, 0.1, 1 / 3]


@st.composite
def csv_columns(draw, n):
    """Int, float and float-with-None columns of length n.

    In a float column a drawn share of the cells comes from a small pool
    that always holds 0.0 and -0.0 (a share of 1 repeats a few values
    throughout, 0.4 and 0.6 lie either side of the writer's half-distinct
    switch); the other cells are distinct, over 600 decades, subnormals
    and signed zeros among them.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["int", "float", "none"]), min_size=1, max_size=4))
    columns = []
    for kind in kinds:
        if kind == "int":
            columns.append(rng.integers(-10**15, 10**15, n))
            continue
        pool = [0.0, -0.0] + draw(st.lists(
            st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS), max_size=6))
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-330, 300, n).astype(float)
        pick = rng.random(n) < draw(st.sampled_from([0.0, 0.4, 0.6, 1.0]))
        col[pick] = rng.choice(np.array(pool), size=int(pick.sum()))
        if kind == "none":
            col = [None if r < 0.3 else v for r, v in zip(rng.random(n), col.tolist())]
        columns.append(col)
    return columns


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7])
@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_write_csv_property_matches_csv_writer(tmp_path, n, data):
    columns = data.draw(csv_columns(n))
    names = [f"c{j}" for j in range(len(columns))]
    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns])
    path, ref = tmp_path / "t.csv", tmp_path / "ref.csv"
    _write_csv(path, ["# h"], names, columns)
    _csv_writer_reference(ref, ["# h"], names, rows)
    assert path.read_bytes() == ref.read_bytes()


def test_analyze_coupled_and_uncoupled(tmp_path, capsys):
    kf = write_kernel(tmp_path / "k.json", builtin.example2_kernel())
    assert main(["analyze", kf, "--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "uncoupled             : False" in out
    assert "do not commute" in out

    kf = write_kernel(tmp_path / "k2.json", builtin.counterexample_kernel())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_dim": 1}))
    assert main(["analyze", kf, "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "uncoupled             : True" in out
    # uncoupled but not orthogonal: values do not commute, no recovery
    assert "do not commute" in out

    from mvk.kernels import ScalarKernel, SeparableKernel

    ortho = SeparableKernel.create(
        [
            (ScalarKernel.gaussian(1.0), np.diag([1.0, 0.0])),
            (ScalarKernel.gaussian(3.0), np.diag([0.0, 2.0])),
        ]
    )
    kf = write_kernel(tmp_path / "k3.json", ortho)
    assert main(["analyze", kf, "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "orthogonal products   : True" in out
    assert "recovered orthogonal decomposition: 2 terms" in out


def test_analyze_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 2}')
    with pytest.raises(SystemExit):
        main(["analyze", str(bad)])


def well_conditioned_kernel():
    from mvk.kernels import ScalarKernel, SeparableKernel

    return SeparableKernel.create(
        [
            (ScalarKernel.gaussian(2.0), np.array([[2.0, 1.0], [1.0, 2.0]])),
            (ScalarKernel.gaussian(5.0), np.eye(2)),
        ]
    )


def test_fit_eval_roundtrip(tmp_path, capsys):
    kernel = well_conditioned_kernel()
    kf = write_kernel(tmp_path / "k.json", kernel)
    rng = np.random.default_rng(0)
    X = np.sort(rng.uniform(-1, 1, 12))[:, None]
    F = np.stack([np.sin(3 * X[:, 0]), np.cos(2 * X[:, 0])], axis=1)
    data = write_data(tmp_path / "train.csv", X, F)
    model = str(tmp_path / "model.json")
    assert main(["fit", "--data", data, "--kernel", kf, "--out-model", model]) == 0
    capsys.readouterr()

    pred = str(tmp_path / "pred.csv")
    assert main(["eval", "--model", model, "--data", data, "--out-csv", pred]) == 0
    header, rows = read_csv(pred)
    assert header == ["x_1", "s_1", "s_2"]
    P = np.array([[float(v) for v in r[1:]] for r in rows])
    assert np.allclose(P, F, atol=1e-8)


def test_eval_bound_columns(tmp_path, capsys):
    kernel = well_conditioned_kernel()
    kf = write_kernel(tmp_path / "k.json", kernel)
    X = np.linspace(-1, 1, 5)[:, None]
    F = np.stack([X[:, 0], X[:, 0] ** 2], axis=1)
    data = write_data(tmp_path / "train.csv", X, F)
    model = str(tmp_path / "model.json")
    main(["fit", "--data", data, "--kernel", kf, "--out-model", model])
    capsys.readouterr()

    query = write_data(tmp_path / "q.csv", np.array([[0.3], [0.7]]))
    out = str(tmp_path / "pred.csv")
    assert main(
        ["eval", "--model", model, "--data", query, "--out-csv", out,
         "--bounds", "--residual-norm", "2.0"]
    ) == 0
    assert capsys.readouterr().out.rstrip().endswith(" bounds path=cholesky")
    assert read_header(out)[-1] == "# solver: bounds path=cholesky"
    header, rows = read_csv(out)
    assert header[-3:] == ["delta1_two", "delta1_inf", "delta1_one"]
    for r in rows:
        d_two, d_inf, d_one = (float(v) for v in r[-3:])
        assert 0 <= d_inf <= d_two + 1e-12
        assert d_one == pytest.approx(np.sqrt(2) * d_two)


def test_solver_route_in_outputs(tmp_path, capsys):
    from mvk.kernels import ScalarKernel, SeparableKernel

    # orthogonal rank-1 coefficients: fit solves one system per term
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    u = np.array([1.0, -1.0]) / np.sqrt(2.0)
    kernel = SeparableKernel.create([
        (ScalarKernel.gaussian(2.0), 2.0 * np.outer(v, v)),
        (ScalarKernel.gaussian(5.0), np.outer(u, u)),
    ])
    X = np.linspace(-1, 1, 6)[:, None]
    F = np.stack([np.sin(X[:, 0]), X[:, 0] ** 2], axis=1)
    data = write_data(tmp_path / "train.csv", X, F)
    model = tmp_path / "model.json"
    # any two coefficients with a pd sum split by congruence, here into two
    # groups; three whose whitened forms do not commute stay one block
    unsplit = SeparableKernel.create([
        (ScalarKernel.gaussian(2.0), np.array([[2.0, 1.0], [1.0, 2.0]])),
        (ScalarKernel.gaussian(5.0), np.eye(2)),
        (ScalarKernel.gaussian(3.0), np.diag([1.0, 0.0])),
    ])
    for kern, blocks in ((kernel, 2), (well_conditioned_kernel(), 2), (unsplit, 1)):
        kf = write_kernel(tmp_path / "k.json", kern)
        main(["fit", "--data", data, "--kernel", kf, "--out-model", str(model)])
        assert capsys.readouterr().out.rstrip().endswith(f", blocks={blocks})")
        assert json.loads(model.read_text())["solver_info"]["blocks"] == blocks
    # without --bounds there is no solver line
    out = tmp_path / "pred.csv"
    main(["eval", "--model", str(model), "--data", data, "--out-csv", str(out)])
    assert not any(line.startswith("# solver:") for line in read_header(out))
    # model files written without the field still load
    doc = json.loads(model.read_text())
    del doc["solver_info"]["blocks"]
    model.write_text(json.dumps(doc))
    out2 = tmp_path / "pred2.csv"
    assert main(["eval", "--model", str(model), "--data", data, "--out-csv", str(out2)]) == 0
    assert out2.read_bytes() == out.read_bytes()


def write_header_only(path, names):
    path.write_text("# no rows\n" + ",".join(names) + "\n")
    return str(path)


def test_fit_on_a_header_only_csv_writes_the_empty_model(tmp_path, capsys):
    data = write_header_only(tmp_path / "train.csv", ["x_1", "x_2", "f_1", "f_2", "f_3"])
    model = tmp_path / "model.json"
    assert main(["fit", "--data", data, "--kernel", str(FIXTURE / "coupled_kernel.json"),
                 "--out-model", str(model)]) == 0
    assert "path=empty" in capsys.readouterr().out
    doc = json.loads(model.read_text())
    assert doc["solver_info"]["path"] == "empty"
    assert np.size(doc["centers"]) == 0 and np.size(doc["coeffs"]) == 0


@pytest.mark.parametrize("bounds", [False, True])
def test_eval_on_a_header_only_csv_writes_only_the_header(tmp_path, capsys, bounds):
    model, pred = str(tmp_path / "model.json"), tmp_path / "pred.csv"
    assert main(["fit", "--data", str(FIXTURE / "coupled_train.csv"),
                 "--kernel", str(FIXTURE / "coupled_kernel.json"), "--out-model", model]) == 0
    query = write_header_only(tmp_path / "q.csv", ["x_1", "x_2"])
    argv = ["eval", "--model", model, "--data", query, "--out-csv", str(pred)]
    assert main(argv + (["--bounds"] if bounds else [])) == 0
    names = ["x_1", "x_2", "s_1", "s_2", "s_3"]
    if bounds:
        names += ["delta1_two", "delta1_inf", "delta1_one"]
    assert read_csv(pred) == (names, [])
    assert pred.read_bytes().endswith(b"\n" + ",".join(names).encode() + b"\r\n")


def test_fit_dimension_mismatch(tmp_path):
    kf = write_kernel(tmp_path / "k.json", builtin.example2_kernel())
    X = np.linspace(-1, 1, 4)[:, None]
    F = np.ones((4, 2))  # kernel expects m = 4
    data = write_data(tmp_path / "train.csv", X, F)
    with pytest.raises(SystemExit):
        main(["fit", "--data", data, "--kernel", kf,
              "--out-model", str(tmp_path / "m.json")])


@pytest.mark.parametrize("column", ["x_1", "f_2"])
def test_fit_rejects_non_finite_data(tmp_path, column):
    kf = write_kernel(tmp_path / "k.json", well_conditioned_kernel())
    X = np.linspace(-1, 1, 5)[:, None]
    F = np.stack([X[:, 0], X[:, 0] ** 2], axis=1)
    if column == "x_1":
        X[2, 0] = np.nan
    else:
        F[2, 1] = np.inf
    data = write_data(tmp_path / "train.csv", X, F)
    model = tmp_path / "m.json"
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", data, "--kernel", kf, "--out-model", str(model)])
    assert str(exc.value.code).startswith("error: ")
    assert "non-finite" in str(exc.value.code)
    assert not model.exists()


MALFORMED = {
    "empty": ("", "no header row"),
    "comments only": ("# no data\n", "no header row"),
    "short row": ("x_1,x_2\n0.1,0.2\n0.3\n", "line 3 has 1 fields, the header has 2"),
    "long row": ("x_1,x_2\n0.1,0.2,0.3\n", "line 2 has 3 fields, the header has 2"),
    "not a number": ("x_1,x_2\n# skipped\n0.1,abc\n", "line 3: could not convert"),
}


@pytest.mark.parametrize("command", ["fit", "eval"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_data_csv_is_an_error_line(tmp_path, command, case):
    text, message = MALFORMED[case]
    data = tmp_path / "data.csv"
    data.write_text(text)
    model, out = tmp_path / "model.json", tmp_path / "out.csv"
    if command == "fit":
        argv = ["fit", "--data", str(data), "--kernel", str(FIXTURE / "coupled_kernel.json"),
                "--out-model", str(model)]
    else:
        assert main(["fit", "--data", str(FIXTURE / "coupled_train.csv"),
                     "--kernel", str(FIXTURE / "coupled_kernel.json"),
                     "--out-model", str(model)]) == 0
        argv = ["eval", "--model", str(model), "--data", str(data), "--out-csv", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value.code).startswith(f"error: {data}: ")
    assert message in str(exc.value.code)
    assert not out.exists() and (command == "eval" or not model.exists())


def test_data_columns_are_taken_by_name(tmp_path, capsys):
    # the same data with its columns in another order give the same model
    X = np.linspace(-1, 1, 6)[:, None] * [1.0, -0.5]
    F = np.stack([np.sin(X[:, 0]), X[:, 1] ** 2, X[:, 0] * X[:, 1]], axis=1)
    names = ["x_1", "x_2", "f_1", "f_2", "f_3"]
    models = []
    for order in ([0, 1, 2, 3, 4], [2, 3, 4, 0, 1], [4, 1, 3, 0, 2]):
        data = tmp_path / f"train{len(models)}.csv"
        rows = np.hstack([X, F])[:, order]
        data.write_text(",".join(names[j] for j in order) + "\n"
                        + "".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows))
        model = tmp_path / f"model{len(models)}.json"
        assert main(["fit", "--data", str(data), "--kernel", str(FIXTURE / "coupled_kernel.json"),
                     "--out-model", str(model)]) == 0
        models.append(model.read_bytes())
    assert models[1] == models[0] and models[2] == models[0]
    capsys.readouterr()


# a duplicate name, a gap in the numbering of x or f, another name, no x
BAD_HEADERS = ["x_1,x_1,f_1,f_2,f_3", "x_1,x_3,f_1,f_2,f_3", "x_1,x_2,f_1,f_2,f_4",
               "x_1,y,f_1,f_2,f_3", "f_1,f_2,f_3,f_4,f_5"]


@pytest.mark.parametrize("command", ["fit", "eval"])
@pytest.mark.parametrize("header", BAD_HEADERS)
def test_bad_data_header_is_an_error_line(tmp_path, command, header):
    data = tmp_path / "data.csv"
    data.write_text(header + "\n" + ",".join(["0.5"] * 5) + "\n")
    model, out = tmp_path / "model.json", tmp_path / "out.csv"
    if command == "fit":
        argv = ["fit", "--data", str(data), "--kernel", str(FIXTURE / "coupled_kernel.json"),
                "--out-model", str(model)]
    else:
        assert main(["fit", "--data", str(FIXTURE / "coupled_train.csv"),
                     "--kernel", str(FIXTURE / "coupled_kernel.json"),
                     "--out-model", str(model)]) == 0
        argv = ["eval", "--model", str(model), "--data", str(data), "--out-csv", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value.code).startswith(f"error: {data}: header {header} does not name x_1")
    assert not out.exists() and (command == "eval" or not model.exists())


@pytest.mark.parametrize("norm", ["-1", "nan", "inf"])
def test_eval_rejects_bad_residual_norm(tmp_path, norm):
    kf = write_kernel(tmp_path / "k.json", well_conditioned_kernel())
    X = np.linspace(-1, 1, 5)[:, None]
    data = write_data(tmp_path / "train.csv", X, np.stack([X[:, 0], X[:, 0] ** 2], axis=1))
    model = str(tmp_path / "model.json")
    assert main(["fit", "--data", data, "--kernel", kf, "--out-model", model]) == 0
    out = tmp_path / "pred.csv"
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", model, "--data", data, "--out-csv", str(out),
              "--bounds", "--residual-norm", norm])
    assert str(exc.value.code).startswith("error: --residual-norm")
    assert not out.exists()


def test_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"centers": {"n": 5}}))
    for cmd in (["example1"], ["example2"]):
        d1, d2 = tmp_path / f"{cmd[0]}_1", tmp_path / f"{cmd[0]}_2"
        for d in (d1, d2):
            assert main(cmd + ["--config", str(cfg), "--out", str(d)]) == 0
        for f1 in sorted(d1.iterdir()):
            assert f1.read_bytes() == (d2 / f1.name).read_bytes()


def test_seed_changes_output(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"centers": {"n": 5}}))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    main(["example2", "--config", str(cfg), "--out", str(d1), "--seed", "1"])
    main(["example2", "--config", str(cfg), "--out", str(d2), "--seed", "2"])
    assert (
        (d1 / "residual.csv").read_bytes() != (d2 / "residual.csv").read_bytes()
    )


def _dense_gaussian_block(Xa, Xb, doc):
    """sum_i kron(K_i(Xa, Xb), Q_i) from exact differences, without mvk."""
    diff = Xa[:, None, :] - Xb[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    m = doc["m"]
    return sum(np.kron(np.exp(-t["shape"] * d2), np.reshape(t["coeff"], (m, m)))
               for t in doc["terms"])


def _check_fit_and_bounds_on_fixture(tmp_path, capsys, kf):
    """``fit`` + ``eval --bounds`` with kernel file kf on the fixture's points.

    Checks the route and, against the dense solve, the predictions and
    ||D(x)||_2; returns the training and the query points.
    """
    data, query = (str(FIXTURE / f) for f in ("coupled_train.csv", "coupled_query.csv"))
    model, pred = str(tmp_path / "model.json"), str(tmp_path / "pred.csv")
    assert main(["fit", "--data", data, "--kernel", kf, "--out-model", model]) == 0
    assert capsys.readouterr().out.rstrip().endswith(", blocks=1)")
    assert main(["eval", "--model", model, "--data", query, "--out-csv", pred,
                 "--bounds", "--residual-norm", "0.5"]) == 0
    assert read_header(pred)[-1] == "# solver: bounds path=cholesky"

    doc = json.loads(Path(kf).read_text())
    assert congruence_split([np.reshape(t["coeff"], (3, 3)) for t in doc["terms"]]) is None
    info = json.loads(Path(model).read_text())["solver_info"]
    assert info["path"] == "cholesky" and info["blocks"] == 1
    assert info["residual"] <= LIN_TOL
    _, rows = read_csv(data)
    train = np.array(rows, dtype=float)
    X, F = train[:, :2], train[:, 2:]
    _, rows = read_csv(pred)
    out = np.array(rows, dtype=float)
    Xq, S, two = out[:, :2], out[:, 2:5], out[:, 5]
    # the point-major dense system, solved independently
    G = _dense_gaussian_block(X, X, doc)
    C = _dense_gaussian_block(Xq, X, doc)
    alpha = np.linalg.solve(G, F.reshape(-1))
    assert np.allclose(S.reshape(-1), C @ alpha, rtol=0, atol=1e-10 * np.abs(F).max())
    kxx = sum(np.reshape(t["coeff"], (3, 3)) for t in doc["terms"])
    Cq = C.reshape(len(Xq), 3, -1)
    D = kxx - np.einsum("qan,qbn->qab", Cq, np.linalg.solve(G, C.T).T.reshape(len(Xq), 3, -1))
    spec = np.linalg.norm(0.5 * (D + np.swapaxes(D, 1, 2)), 2, axis=(1, 2))
    assert np.allclose((two / 0.5) ** 2, spec, rtol=0, atol=1e-10 * np.linalg.norm(kxx, 2))
    return X, Xq


def test_fit_and_bounds_on_the_unsplit_fixture(tmp_path, capsys):
    _check_fit_and_bounds_on_fixture(tmp_path, capsys, str(FIXTURE / "coupled_kernel.json"))


def test_fit_and_bounds_through_the_exp_floor(tmp_path, capsys):
    # The fixture's kernel with shapes 200/400/800: exp(-eps d^2) of some
    # pairs of training points, and of query and training points, lies
    # below exp(EXP_FLOOR) and is flushed to 0.  Shapes 5/10/20 never get
    # there.
    doc = json.loads((FIXTURE / "coupled_kernel.json").read_text())
    for t, shape in zip(doc["terms"], (200.0, 400.0, 800.0)):
        t["shape"] = shape
    kf = tmp_path / "kernel.json"
    kf.write_text(json.dumps(doc))
    X, Xq = _check_fit_and_bounds_on_fixture(tmp_path, capsys, str(kf))
    for Xa in (X, Xq):
        diff = Xa[:, None, :] - X[None, :, :]
        assert np.any(-800.0 * np.einsum("ijk,ijk->ij", diff, diff) < EXP_FLOOR)
