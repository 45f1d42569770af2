import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mvk import builtin
from mvk.cli import _write_csv, counterexample_report, example2_run, main
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


def test_write_csv_matches_csv_writer(tmp_path):
    # one format string per table writes what csv.writer wrote with %.17g
    # floats, including a row with a None (an empty field), nan and -0.0
    rows = [(0, 0.1, 1e-300, -0.0), (1, None, float("nan"), 2.0),
            (2, 1 / 3, float("inf"), 123456789.0)]
    path = tmp_path / "t.csv"
    _write_csv(path, ["# h"], ["i", "a", "b", "c"], iter(rows))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        fh.write("# h\n")
        w = csv.writer(fh)
        w.writerow(["i", "a", "b", "c"])
        for row in rows:
            w.writerow(["" if v is None else f"{v:.17g}" if isinstance(v, float) else v
                        for v in row])
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


def test_fit_dimension_mismatch(tmp_path):
    kf = write_kernel(tmp_path / "k.json", builtin.example2_kernel())
    X = np.linspace(-1, 1, 4)[:, None]
    F = np.ones((4, 2))  # kernel expects m = 4
    data = write_data(tmp_path / "train.csv", X, F)
    with pytest.raises(SystemExit):
        main(["fit", "--data", data, "--kernel", kf,
              "--out-model", str(tmp_path / "m.json")])


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


def test_fit_and_bounds_on_the_unsplit_fixture(tmp_path, capsys):
    kf, data, query = (str(FIXTURE / f) for f in
                       ("coupled_kernel.json", "coupled_train.csv", "coupled_query.csv"))
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
