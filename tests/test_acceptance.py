"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
``criterion N [PASS|FAIL]`` line to the terminal, bypassing pytest's
output capture.  All tolerances are pinned as module constants.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from mvk import builtin
from mvk.cli import counterexample_report, example2_run, main
from mvk.decomposition import analyze, decomposition_equivalent, recover_uncoupled
from mvk.interpolation import NativeSpanFunction, fit, native_norm_sq, residual_norm_sq
from mvk.kernels import PointSet, ScalarKernel, SeparableKernel
from mvk.power import PowerEvaluator, bound_factors, power_additivity_check, scalar_power_sq
from mvk.tuning import KernelTemplate, select_shapes

# -- pinned tolerances, one block per criterion ------------------------------
C1_LAMBDA_RANGE = (-0.049, -0.039)
C1_RUNTIME_S = 1.0
C2_REL_RESIDUAL = 1e-8
C3_ZERO_AT_CENTERS = 1e-10
C3_MONOTONE_SLACK = 1e-10
C4_REL_SLACK = 1e-9
C5_FACTORIZATION = 1e-10
C5_ADDITIVITY_REL = 1e-8
C5_GAP_NEGATIVE = 1e-10
C5_GAP_STRICT = 1e-6
C7_ORTHOGONALITY = 1e-8
C8_DECAY_RATIO = 1e-2
C8_CURVE_FACTOR = 2.0
C8_TIE_RTOL = 1e-6
C9_VANISH = 1e-9
C9_COMBINED = 1e-4


@contextmanager
def criterion(capsys, num, desc):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} [FAIL] {desc}")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} [PASS] {desc}")


def test_criterion_01_pointwise_square_counterexample(capsys):
    with criterion(capsys, 1, "pointwise square of a PD kernel turns indefinite"):
        t0 = time.perf_counter()
        rep = counterexample_report()
        elapsed = time.perf_counter() - t0
        assert elapsed < C1_RUNTIME_S
        assert rep["base_lam_min"] > 0
        lo, hi = C1_LAMBDA_RANGE
        assert lo <= rep["square_lam_min"] <= hi
        S = rep["square_matrix"]
        # the exact integer entries of the 4x4 matrix
        for blk in (S[:2, :2], S[2:, 2:]):
            assert blk[0, 0] == 2.0
            assert blk[0, 1] == 3.0 == blk[1, 0]
            assert blk[1, 1] == 5.0


def _random_spd_problem(rng):
    d = int(rng.integers(1, 3))
    m = int(rng.integers(1, 5))
    p = int(rng.integers(1, 4))
    n = int(rng.integers(5, 26))
    terms = []
    for i in range(p):
        A = rng.standard_normal((m, m))
        Q = A.T @ A + (0.2 * np.eye(m) if i == 0 else 0.0)
        terms.append((ScalarKernel.gaussian(float(rng.uniform(2.0, 8.0))), Q))
    kernel = SeparableKernel.create(terms)
    # jittered grid keeps the Gramian well conditioned
    if d == 1:
        base = np.linspace(-4.0, 4.0, n)[:, None]
        step = 8.0 / max(n - 1, 1)
    else:
        g = int(np.ceil(np.sqrt(n)))
        gg = np.linspace(-4.0, 4.0, g)
        base = np.array([(a, b) for a in gg for b in gg])[:n]
        step = 8.0 / max(g - 1, 1)
    X = PointSet(base + rng.uniform(-0.25, 0.25, base.shape) * step)
    return kernel, X, rng.standard_normal((n, m))


def test_criterion_02_interpolation_exactness(capsys):
    with criterion(capsys, 2, "interpolants reproduce the data on the centers"):
        rng = np.random.default_rng(20260823)
        for _ in range(50):
            kernel, X, F = _random_spd_problem(rng)
            assert kernel.strictly_pd
            s = fit(kernel, X, F)
            rel = np.linalg.norm(s.evaluate_many(X.points) - F) / np.linalg.norm(F)
            assert rel <= C2_REL_RESIDUAL


def _power_law_kernels():
    Qa = np.array([[2.0, 1.0], [1.0, 2.0]])
    Qb = np.array([[1.0, 0.0], [0.0, 0.5]])
    coupled = SeparableKernel.create(
        [(ScalarKernel.gaussian(1.0), Qa), (ScalarKernel.gaussian(2.0), Qb)]
    )
    uncoupled = SeparableKernel.create(
        [
            (ScalarKernel.gaussian(1.0), np.diag([1.0, 0.0])),
            (ScalarKernel.gaussian(3.0), np.diag([0.0, 1.0])),
        ]
    )
    return [(coupled, 1), (uncoupled, 1), (builtin.example2_kernel(), 2)]


def test_criterion_03_power_function_laws(capsys):
    with criterion(capsys, 3, "power-function nonnegativity, zeros, monotonicity"):
        for kernel, d in _power_law_kernels():
            rng = np.random.default_rng(5)
            # well-separated centers keep the prefix Gramians well conditioned
            # (cond <= 3.3e6 on all 8), so roundoff stays below C3_MONOTONE_SLACK
            if d == 1:
                pts = np.linspace(-1, 1, 8)[:, None]
            else:
                gg = np.linspace(-1, 1, 3)
                pts = np.array([(a, b) for a in gg for b in gg])[:8]
            X = PointSet(pts + rng.uniform(-0.08, 0.08, pts.shape))
            samples = []
            for _ in range(100):
                a = rng.standard_normal(kernel.m)
                samples.append((rng.uniform(-1.2, 1.2, d), a / np.linalg.norm(a)))
            prev = None
            for i in range(1, X.n + 1):
                pe = PowerEvaluator.build(kernel, X.prefix(i))
                vals = np.array([pe.power_sq(x, a) for x, a in samples])
                assert np.all(vals >= 0.0)
                if prev is not None:
                    assert np.all(vals <= prev + C3_MONOTONE_SLACK)
                prev = vals
            pe = PowerEvaluator.build(kernel, X)
            for x in X.points:
                for _, a in samples[:5]:
                    assert pe.power_sq(x, a) <= C3_ZERO_AT_CENTERS


def test_criterion_04_error_bound_validity(capsys):
    with criterion(capsys, 4, "pointwise errors never exceed the bounds"):
        kernel = builtin.example2_kernel()
        m = kernel.m
        rng = np.random.default_rng(424242)
        centers = PointSet(rng.uniform(-1, 1, (100, 2)))
        g = np.linspace(-1, 1, 20)
        T = np.array([(a, b) for a in g for b in g])
        targets = [
            NativeSpanFunction(
                kernel,
                PointSet(rng.uniform(-1, 1, (5, 2))),
                rng.standard_normal((5, m)),
            )
            for _ in range(20)
        ]
        fT = [f.evaluate_many(T) for f in targets]
        fC = [f.evaluate_many(centers.points) for f in targets]
        fn = [np.sqrt(native_norm_sq(f)) for f in targets]
        # the route of ``mvk example2``: one nested Cholesky per scalar block,
        # walked prefix by prefix; alpha from an explicit inverse would add
        # roundoff beyond the bound where the bound is small
        pe = PowerEvaluator.nested(kernel, centers)
        for t, f in enumerate(targets):
            for i, (s, pred, _, D) in enumerate(pe.prefixes(fC[t], T), 1):
                factors = bound_factors(D)
                r = min(np.sqrt(residual_norm_sq(f, s)), fn[t])
                E = fT[t] - pred
                errs = {
                    "two": np.linalg.norm(E, axis=1),
                    "inf": np.max(np.abs(E), axis=1),
                    "one": np.sum(np.abs(E), axis=1),
                }
                delta1 = {k: v * r for k, v in factors.items()}
                delta2 = {k: v * fn[t] / max(r, 1e-300) for k, v in delta1.items()}
                for key in errs:
                    assert np.all(
                        errs[key] <= delta1[key] * (1 + C4_REL_SLACK) + 1e-12
                    ), f"prefix {i}, target {t}, {key}-norm"
                    assert np.all(
                        delta1[key] <= delta2[key] * (1 + C4_REL_SLACK) + 1e-12
                    )


def test_criterion_05_factorization_and_additivity(capsys):
    with criterion(capsys, 5, "order-1 factorization and additivity laws"):
        rng = np.random.default_rng(11)
        # order-1 kernels: P^2 = Phat^2 * a^T Q a
        for _ in range(10):
            m = int(rng.integers(1, 5))
            A = rng.standard_normal((m, m))
            ks = ScalarKernel.gaussian(float(rng.uniform(0.5, 3.0)))
            kernel = SeparableKernel.create([(ks, A.T @ A)])
            X = PointSet(np.linspace(-1, 1, 5)[:, None] + rng.uniform(-0.05, 0.05, (5, 1)))
            pe = PowerEvaluator.build(kernel, X)
            for _ in range(10):
                x = rng.uniform(-1.2, 1.2, 1)
                a = rng.standard_normal(m)
                lhs = pe.power_sq(x, a)
                rhs = scalar_power_sq(ks, X, x) * float(a @ (A.T @ A) @ a)
                assert abs(lhs - rhs) <= C5_FACTORIZATION * max(1.0, rhs)
        # uncoupled decomposition: the squared powers add up exactly
        uncoupled = SeparableKernel.create(
            [
                (ScalarKernel.gaussian(1.0), np.diag([1.0, 0.0, 0.0])),
                (ScalarKernel.gaussian(2.0), np.diag([0.0, 1.0, 0.0])),
                (ScalarKernel.gaussian(3.0), np.diag([0.0, 0.0, 1.0])),
            ]
        )
        X = PointSet(np.linspace(-1, 1, 6)[:, None])
        samples = [
            (rng.uniform(-1, 1, 1), rng.standard_normal(3)) for _ in range(50)
        ]
        for rep in power_additivity_check(uncoupled, X, samples):
            assert abs(rep["gap"]) <= C5_ADDITIVITY_REL * max(1.0, rep["whole"])
        # coupled decomposition: sum of parts stays below the whole
        kernel = builtin.example2_kernel()
        X = PointSet(np.random.default_rng(12).uniform(-1, 1, (8, 2)))
        samples = [
            (rng.uniform(-1, 1, 2), rng.standard_normal(4)) for _ in range(50)
        ]
        reports = power_additivity_check(kernel, X, samples)
        assert all(rep["gap"] >= -C5_GAP_NEGATIVE for rep in reports)
        assert sum(rep["gap"] > C5_GAP_STRICT for rep in reports) > len(reports) / 2


def test_criterion_06_uncoupledness_arithmetic(capsys):
    with criterion(capsys, 6, "rank arithmetic classifies the decompositions"):
        rep = analyze(builtin.example2_kernel())
        assert rep.ranks == (1, 3, 1)
        assert not rep.uncoupled
        rep = analyze(builtin.counterexample_kernel(), input_dim=1)
        assert rep.uncoupled
        (v1, v2, v3), _, _ = builtin.example1_covariance_directions(seed=7)
        k2 = builtin.example1_kernels(v1, v2, v3)["k2"]
        rep = analyze(k2, input_dim=1)
        assert rep.orthogonal_products


def _random_orthogonal(rng, m):
    Q, R = np.linalg.qr(rng.standard_normal((m, m)))
    return Q * np.sign(np.diag(R))


def test_criterion_07_decomposition_recovery(capsys):
    with criterion(capsys, 7, "orthogonal decompositions recovered from values"):
        rng = np.random.default_rng(97)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            p = int(rng.integers(2, min(m, 3) + 1))
            P = _random_orthogonal(rng, m)
            groups = rng.integers(0, p, size=m)
            while len(set(groups.tolist())) < p:
                groups = rng.integers(0, p, size=m)
            shapes = 0.5 + 3.0 * rng.random(p)
            terms = []
            for l in range(p):
                idx = np.where(groups == l)[0]
                Q = sum(
                    (0.5 + rng.random()) * np.outer(P[:, j], P[:, j])
                    for j in idx
                )
                terms.append((ScalarKernel.gaussian(float(shapes[l])), Q))
            kernel = SeparableKernel.create(terms)
            pairs = [
                (rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(25)
            ]
            rec = recover_uncoupled(kernel, pairs)
            assert len(rec.groups) == p
            for i in range(len(rec.coeffs)):
                for j in range(i + 1, len(rec.coeffs)):
                    assert (
                        np.linalg.norm(rec.coeffs[i] @ rec.coeffs[j])
                        <= C7_ORTHOGONALITY
                    )
            assert decomposition_equivalent(rec, kernel, pairs)


def test_criterion_08_error_decay_trend(capsys, tmp_path):
    with criterion(capsys, 8, "combined-direction kernel beats the baseline"):
        out = tmp_path / "e1"
        assert main(["example1", "--out", str(out)]) == 0
        rows = {}
        for line in (out / "decay.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("N,"):
                continue
            vals = line.split(",")
            rows[int(vals[0])] = [float(v) if v else np.nan for v in vals[1:]]
        assert rows[21][2] <= C8_DECAY_RATIO * rows[21][0]  # k3 vs k1 at N=21
        for N in range(1, 6):
            errs = rows[N]
            assert max(errs) <= C8_CURVE_FACTOR * min(errs)
        # fresh tuning groups the two comparable directions identically.
        # Bit-equal v2/v3 shapes are not asserted: their axes lie on a
        # plateau of the max-error objective whose gaps (~1e-13 residuals)
        # are below the float64 noise of the Gramian solves, so the
        # first-found argmin there is picked by roundoff.  What is checked
        # is that tying v2 and v3 costs nothing: under 2e-16 perturbations
        # of v1..v3 the lifted k3 choice stays within 2.1e-9 of k4's best,
        # while tying v1 with v2 or v3 misses it by a factor of about 5e1.
        (v1, v2, v3), _, _ = builtin.example1_covariance_directions(seed=7)
        results, cfg = builtin.example1_tune(v1, v2, v3, seed=7)
        k3, k4 = results["k3"], results["k4"]
        assert k4.shapes[0] == k3.shapes[0]
        assert k3.error <= k4.error * (1 + C8_TIE_RTOL)
        lifted = k4.table[:, :3] == [k3.shapes[0], k3.shapes[1], k3.shapes[1]]
        (row,) = np.flatnonzero(lifted.all(axis=1))
        assert k4.table[row, -1] <= k4.error * (1 + C8_TIE_RTOL)
        # negative control: a wrong grouping is visibly worse
        wrong = KernelTemplate(
            coeffs=(np.outer(v1, v1) + np.outer(v2, v2), np.outer(v3, v3)),
            groups=(0, 1),
        )
        miss = select_shapes(wrong, builtin.example1_target, cfg)
        assert miss.error > k4.error * (1 + C8_TIE_RTOL)


def test_criterion_09_polynomial_power_counterexample(capsys):
    with criterion(capsys, 9, "scalar powers vanish but the sum kernel's does not"):
        k1 = ScalarKernel.polynomial(1)
        k2 = ScalarKernel.polynomial(2)
        X = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        x = np.array([0.3, 0.7])
        assert scalar_power_sq(k1, X, x) <= C9_VANISH
        assert scalar_power_sq(k2, X, x) <= C9_VANISH
        combined = SeparableKernel.create(
            [(k1, np.eye(1)), (k2, np.eye(1))]
        )
        pe = PowerEvaluator.build(combined, X)
        assert pe.power_sq(x, np.ones(1)) > C9_COMBINED


def test_criterion_10_determinism(capsys, tmp_path):
    with criterion(capsys, 10, "reruns are byte-identical"):
        import json

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"centers": {"n": 8}}))
        kernel_file = tmp_path / "k.json"
        kernel_file.write_text(json.dumps(builtin.example2_kernel().to_dict()))
        data = tmp_path / "data.csv"
        X = np.linspace(-1, 1, 6)
        lines = ["x_1,f_1,f_2,f_3,f_4"]
        lines += [
            ",".join(repr(float(v)) for v in (x, np.sin(x), np.cos(x), x * x, x))
            for x in X
        ]
        data.write_text("\n".join(lines) + "\n")

        def run_all(root):
            root.mkdir()
            main(["example1", "--config", str(cfg), "--out", str(root / "e1")])
            main(["example2", "--config", str(cfg), "--out", str(root / "e2")])
            main(["counterexample", "--out", str(root / "ce")])
            main(["analyze", str(kernel_file), "--out", str(root / "an")])
            model = root / "model.json"
            main(["fit", "--data", str(data), "--kernel", str(kernel_file),
                  "--out-model", str(model)])
            main(["eval", "--model", str(model), "--data", str(data),
                  "--out-csv", str(root / "pred.csv"), "--bounds"])

        r1, r2 = tmp_path / "run1", tmp_path / "run2"
        run_all(r1)
        run_all(r2)
        produced = sorted(p.relative_to(r1) for p in r1.rglob("*") if p.is_file())
        assert produced
        for rel in produced:
            assert (r1 / rel).read_bytes() == (r2 / rel).read_bytes(), rel
