"""The benchmark's workloads: seeded inputs, CLI calls and output checks.

Every workload is a closed loop with one client: one fresh child process
per iteration runs the workload's CLI calls one after another.  Inputs are
made from the seed with ``numpy.random.default_rng`` before the timed child
starts, so the program only ever receives files.

The checks accept any output that is correct up to roundoff; they do not
compare bytes or depend on how ties are broken.  The references they
compare against are plain numpy/scipy code that does not import ``mvk``.
"""

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Gaussian shapes of the fit/eval workloads.  Smaller shapes (10, 30) make
# the n=1500 Gramian numerically singular, so Cholesky fails (lambda_min
# about -1.2e-14); 100 is the smallest decade that factors.
SHAPES = (100.0, 200.0, 400.0)
M = 3
DOMAIN = (-1.0, 1.0)

# Sizes: fit_eval_uncoupled is the n~1500, m=3 problem of the roadmap, with
# q=5000 queries so that batch evaluation dominates `mvk eval`.
# bounds_coupled is smaller because the bound columns cost an eigh of the
# (n m)^2 Gramian plus a (q, m, m n) deficiency product: n=1500, q=2000
# takes about 35 s per iteration, n=q=1000 about 9 s.
UNCOUPLED_N, UNCOUPLED_Q = 1500, 5000
COUPLED_N, COUPLED_Q = 1000, 1000
RESIDUAL_NORM = 0.5

# Points of the fixed subsets on which predictions and bounds are checked.
CHECK_POINTS = 200

# example1 evaluates 4 kernels at 400 test points for N = 1..35 centers,
# example2 evaluates 400 grid points for 100 nested center prefixes.
EXAMPLE1_EVAL_POINTS = 35 * 4 * 400
EXAMPLE2_EVAL_POINTS = 100 * 400

# Relative slack on the tuning objective: a selected shape is accepted if
# its validation error is within this factor of the table's best.
TUNE_RTOL = 1e-6
# Relative slack on the a-priori error bounds of example2.
BOUND_RTOL = 1e-6
# Tolerances against the independent reference solves.
PRED_RTOL = 1e-6
CENTER_RTOL = 1e-6
DEFICIENCY_ATOL = 1e-8


class CheckError(AssertionError):
    """An output of the program is wrong."""


@dataclass
class Workload:
    """Inputs, CLI calls and the output check of one benchmark iteration."""

    calls: list                 # argv lists for mvk.cli.main, run in order
    outputs: list               # files and directories the calls write
    eval_points: int            # points evaluated by the last call
    check: Callable[[dict], None]  # raises CheckError; gets prepare()'s result
    prepare: Callable[[], dict] = dict  # reference values, made once per run
    # Check of the first call's output alone, for workloads whose first call
    # (``mvk fit``) is also run on its own to add fit_s samples; None if the
    # first call is the whole workload.
    check_first: Optional[Callable[[], None]] = None


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for r in rows:
            w.writerow([repr(float(v)) for v in r])


def _read_csv(path):
    """Header and float rows of an mvk CSV; '#' lines are skipped."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    header = lines[0].strip().split(",")
    if len(lines) == 1:
        return header, np.zeros((0, len(header)))
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    return header, data


def _kernel_doc(coeffs):
    return {
        "m": M,
        "terms": [
            {"kind": "gaussian", "shape": eps, "coeff": Q.reshape(-1).tolist()}
            for eps, Q in zip(SHAPES, coeffs)
        ],
    }


def _target(X, rng):
    """Smooth seeded target f: R^2 -> R^3, f_j(x) = sin(a_j . x + b_j)."""
    A = rng.normal(0.0, 2.0, size=(M, X.shape[1]))
    b = rng.uniform(0.0, 2 * np.pi, size=M)
    return np.sin(X @ A.T + b)


def _gauss(X, Y, eps):
    """exp(-eps |x - y|^2) from exact differences (independent of mvk)."""
    diff = X[:, None, :] - Y[None, :, :]
    return np.exp(-eps * np.einsum("ijk,ijk->ij", diff, diff))


def _block(Xa, Xb, coeffs):
    """Block kernel matrix sum_i kron(K_i(Xa, Xb), Q_i)."""
    return sum(np.kron(_gauss(Xa, Xb, eps), Q) for eps, Q in zip(SHAPES, coeffs))


def _make_fit_eval(workdir, seed, n, q, coeffs_of, bounds):
    rng = np.random.default_rng(seed)
    X = rng.uniform(*DOMAIN, size=(n, 2))
    coeffs = coeffs_of(rng)
    F = _target(X, rng)
    Xq = rng.uniform(*DOMAIN, size=(q, 2))
    subset = np.sort(rng.choice(q, size=CHECK_POINTS, replace=False))
    centers_subset = np.sort(rng.choice(n, size=CHECK_POINTS, replace=False))

    train, query, kern = workdir / "train.csv", workdir / "query.csv", workdir / "kernel.json"
    model, pred = workdir / "model.json", workdir / "pred.csv"
    _write_csv(train, ["x_1", "x_2"] + [f"f_{j + 1}" for j in range(M)], np.hstack([X, F]))
    _write_csv(query, ["x_1", "x_2"], Xq)
    kern.write_text(json.dumps(_kernel_doc(coeffs)))

    inputs = dict(X=X, F=F, Xq=Xq, coeffs=coeffs, subset=subset,
                  centers_subset=centers_subset, model=model, pred=pred)
    eval_call = ["eval", "--model", str(model), "--data", str(query), "--out-csv", str(pred)]
    if bounds:
        eval_call += ["--bounds", "--residual-norm", repr(RESIDUAL_NORM)]
    return Workload(
        calls=[["fit", "--data", str(train), "--kernel", str(kern), "--out-model", str(model)],
               eval_call],
        outputs=[model, pred],
        eval_points=q,
        check=lambda ref: (_check_bounds if bounds else _check_uncoupled)(inputs, ref),
        prepare=lambda: _reference(inputs, bounds),
        check_first=lambda: _check_model(inputs),
    )


def _uncoupled_coeffs(rng):
    # Rank-1 projections v_i v_i^T onto the columns of a seeded rotation:
    # their pairwise products vanish, so the kernel is uncoupled.
    R, r = np.linalg.qr(rng.standard_normal((M, M)))
    R = R * np.sign(np.diag(r))
    return [np.outer(R[:, i], R[:, i]) for i in range(M)]


def _coupled_coeffs(rng):
    # Full-rank A_i A_i^T / 3 with Gaussian A_i: every pair couples.
    out = []
    for _ in range(M):
        A = rng.standard_normal((M, M))
        out.append(A @ A.T / 3.0)
    return out


def _reference(inputs, bounds):
    """Independent dense solve of sum_i kron(K_i, Q_i) on the seeded inputs."""
    X, F, Xq, coeffs = inputs["X"], inputs["F"], inputs["Xq"], inputs["coeffs"]
    G = _block(X, X, coeffs)
    factor = cho_factor(G, lower=True)
    Xs = Xq[inputs["subset"]]
    Cs = _block(Xs, X, coeffs)  # (s m, n m)
    alpha = cho_solve(factor, F.reshape(-1))
    ref = {"pred": (Cs @ alpha).reshape(len(Xs), M)}
    if bounds:
        kxx = sum(Q for Q in coeffs)  # k(x, x) = sum_i Q_i for Gaussians
        S = cho_solve(factor, Cs.T)  # G^{-1} k(X, x) for all subset points
        kn = np.einsum("san,nsb->sab", Cs.reshape(len(Xs), M, -1),
                       S.reshape(-1, len(Xs), M))
        D = kxx[None] - kn
        D = 0.5 * (D + np.swapaxes(D, 1, 2))
        ref["spec"] = np.linalg.norm(D, 2, axis=(1, 2))
        ref["kxx_norm"] = float(np.linalg.norm(kxx, 2))
    return ref


def _load_model_doc(path):
    with open(path) as fh:
        doc = json.load(fh)
    centers = np.asarray(doc["centers"], dtype=np.float64)
    coeffs = np.asarray(doc["coeffs"], dtype=np.float64)
    return centers, coeffs


def _check_predictions(inputs, reference, pred):
    X, F, Xq = inputs["X"], inputs["F"], inputs["Xq"]
    if pred.shape[0] != len(Xq):
        raise CheckError(f"prediction file has {pred.shape[0]} rows, expected {len(Xq)}")
    if not np.allclose(pred[:, :2], Xq, rtol=0, atol=1e-15):
        raise CheckError("prediction file does not echo the query points")
    scale = max(1.0, float(np.max(np.abs(F))))
    got = pred[inputs["subset"], 2:2 + M]
    err = float(np.max(np.abs(got - reference["pred"])))
    if not err <= PRED_RTOL * scale:
        raise CheckError(f"predictions differ from the reference solve by {err:.3e}")


def _check_uncoupled(inputs, reference):
    _, pred = _read_csv(inputs["pred"])
    _check_predictions(inputs, reference, pred)
    _check_model(inputs)


def _check_model(inputs):
    """The saved model interpolates: s(x_j) = f(x_j) at the centers."""
    centers, coeffs = _load_model_doc(inputs["model"])
    X, F = inputs["X"], inputs["F"]
    if centers.shape != X.shape or not np.array_equal(centers, X):
        raise CheckError("model centers are not the training points")
    idx = inputs["centers_subset"]
    s = _block(X[idx], centers, inputs["coeffs"]) @ coeffs
    err = float(np.max(np.abs(s.reshape(len(idx), M) - F[idx])))
    if not err <= CENTER_RTOL * max(1.0, float(np.max(np.abs(F)))):
        raise CheckError(f"model misses training values at the centers by {err:.3e}")


def _check_bounds(inputs, reference):
    header, pred = _read_csv(inputs["pred"])
    _check_predictions(inputs, reference, pred)
    _check_model(inputs)
    cols = ["delta1_two", "delta1_inf", "delta1_one"]
    if header[-3:] != cols:
        raise CheckError(f"bound columns missing from header {header}")
    two, inf, one = pred[:, -3], pred[:, -2], pred[:, -1]
    if not (np.all(two >= 0) and np.all(inf >= 0) and np.all(one >= 0)):
        raise CheckError("negative bound factor")
    if not np.allclose(one, np.sqrt(M) * two, rtol=1e-12, atol=0):
        raise CheckError("delta1_one != sqrt(3) * delta1_two")
    # delta1_two = sqrt(||D(x)||_2) * r; compare ||D||_2 with the reference.
    got = (two[inputs["subset"]] / RESIDUAL_NORM) ** 2
    err = float(np.max(np.abs(got - reference["spec"])))
    if not err <= DEFICIENCY_ATOL * reference["kxx_norm"]:
        raise CheckError(f"deficiency norms differ from the reference by {err:.3e}")


def _make_example1(workdir, seed):
    out = workdir / "e1"
    return Workload(
        calls=[["example1", "--tune", "--seed", str(seed), "--out", str(out)]],
        outputs=[out],
        eval_points=EXAMPLE1_EVAL_POINTS,
        check=lambda ref: _check_example1(out),
    )


def _check_example1(out):
    _, decay = _read_csv(out / "decay.csv")
    if decay.shape[0] != 35:
        raise CheckError(f"decay.csv has {decay.shape[0]} rows, expected 35")
    shapes = {}
    with open(out / "summary.txt") as fh:
        for line in fh:
            if line.startswith("shapes "):
                name, vals = line[len("shapes "):].split(":")
                shapes[name] = np.array([float(v) for v in vals.split()])
    if sorted(shapes) != ["k1", "k2", "k3", "k4"]:
        raise CheckError(f"summary.txt lists shapes for {sorted(shapes)}")
    for name, sel in shapes.items():
        _, table = _read_csv(out / f"tuning_{name}.csv")
        err = table[:, -1]
        finite = np.isfinite(err)
        if not finite.any():
            raise CheckError(f"tuning_{name}.csv has no finite error")
        best = float(np.min(err[finite]))
        rows = np.all(np.isclose(table[:, 1:-1], sel, rtol=1e-12, atol=0), axis=1)
        ok = rows & finite & (err <= best * (1 + TUNE_RTOL))
        if not ok.any():
            raise CheckError(f"shapes {name}={sel} are not a near-best tuning row")


def _make_example2(workdir, seed):
    out = workdir / "e2"
    return Workload(
        calls=[["example2", "--seed", str(seed), "--out", str(out)]],
        outputs=[out],
        eval_points=EXAMPLE2_EVAL_POINTS,
        check=lambda ref: _check_example2(out),
    )


def _check_example2(out):
    for norm in ("two", "inf", "one"):
        _, rows = _read_csv(out / f"bounds_{norm}_norm.csv")
        if rows.shape[0] != 100:
            raise CheckError(f"bounds_{norm}_norm.csv has {rows.shape[0]} rows")
        err, d1, d2 = rows[:, 1], rows[:, 2], rows[:, 3]
        if not np.all(err <= d1 * (1 + BOUND_RTOL) + 1e-12):
            raise CheckError(f"{norm}-norm error exceeds its delta1 bound")
        if not np.all(d1 <= d2 * (1 + BOUND_RTOL) + 1e-12):
            raise CheckError(f"{norm}-norm delta1 exceeds delta2")
    _, res = _read_csv(out / "residual.csv")
    if not np.all(res[:, 1] <= res[:, 2] * (1 + BOUND_RTOL)):
        raise CheckError("residual_norm exceeds f_norm")


WORKLOADS = {
    "example1_tune": _make_example1,
    "example2": _make_example2,
    "fit_eval_uncoupled": lambda workdir, seed: _make_fit_eval(
        workdir, seed, UNCOUPLED_N, UNCOUPLED_Q, _uncoupled_coeffs, bounds=False),
    "bounds_coupled": lambda workdir, seed: _make_fit_eval(
        workdir, seed, COUPLED_N, COUPLED_Q, _coupled_coeffs, bounds=True),
}


def make(name, workdir: Path, seed: int) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](workdir, seed)
