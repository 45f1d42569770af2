"""Command-line interface.

Subcommands::

    mvk example1        decay of the max interpolation error over center counts
    mvk example2        a-priori error bounds vs. measured errors
    mvk counterexample  pointwise-square kernel losing positive definiteness
    mvk analyze         structural report for a kernel spec file
    mvk fit             fit an interpolant to tabulated CSV data
    mvk eval            evaluate a fitted model, optionally with bound columns

All output files start with a header block recording the tool version, a
hash of the effective configuration, the seeds and the tolerance values,
so a rerun with identical inputs is byte-identical.
"""

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, builtin
from .interpolation import (
    ConditioningError,
    NativeSpanFunction,
    _blocks,
    _residual_form,
    fit,
    load_model,
    native_norm_sq,
    save_model,
)
from .decomposition import NotCommutingError, analyze, commuting_family_check, recover_uncoupled
from .kernels import PointSet, SeparableKernel
from .linalg import PSD_TOL, RANK_TOL, is_psd, sym_eig, symmetrize
from .interpolation import LIN_TOL
from .power import PowerEvaluator, bound_factors

# example2 target: a native-space function on this many random sites.
EXAMPLE2_SITES = 5
# example2 test points: a regular grid with this many values per axis.
EXAMPLE2_TEST_GRID = 20
# Rows per chunk of a CSV table: large enough that the per-chunk numpy calls
# cost little, small enough that a chunk's field strings stay a few MB.
CHUNK = 4096


def _fmt(v):
    return f"{float(v):.17g}"


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _header(command, cfg):
    return [
        f"# mvk {__version__}",
        f"# command: {command}",
        f"# config-hash: {_config_hash(cfg)}",
        f"# seed: {cfg.get('seed')}",
        f"# tolerances: rank_tol={RANK_TOL:g} psd_tol={PSD_TOL:g} lin_tol={LIN_TOL:g}",
    ]


def _chunk_fields(col, empty):
    """Fields and their format for one chunk of a column.

    An int column is written as ``%d`` and an object column as ``%.17g``
    with None as the field ``empty``.  In a float column each distinct bit
    pattern is formatted once, so -0.0 and 0.0 stay apart: a chunk that
    repeats values gets its distinct values formatted with one ``%`` call
    and gathered by the inverse index, under ``%s``.  A chunk with more than
    half of its values distinct is passed on as floats under ``%.17g``; the
    row format formats each once, and gathering would only add a pass.
    """
    if col.dtype.kind in "iu":
        return col, "%d"
    if col.dtype.kind == "O":
        return [empty if v is None else "%.17g" % v for v in col.tolist()], "%s"
    bits, inv = np.unique(col.astype(np.float64, copy=False).view(np.int64),
                          return_inverse=True)
    if 2 * len(bits) > len(col):
        return col, "%.17g"
    vals = tuple(bits.view(np.float64).tolist())
    return np.array(("%.17g," * len(vals) % vals).split(",")[:-1], dtype=object)[inv], "%s"


def _write_csv(path, header, names, columns):
    """Header lines, the column names and one CSV line per row.

    ``columns`` are equal-length 1-D int, float or object columns (see
    ``_chunk_fields``).  Rows go out in chunks of CHUNK, each written with
    one ``(row_fmt * rows) % fields``.  Lines end in ``\r\n``, as csv
    writes them.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    # csv quotes a lone empty field, so the row is not read as a blank line
    empty = '""' if len(columns) == 1 else ""
    fmts = [None] * len(columns)
    with open(path, "w", newline="") as fh:
        for line in header:
            fh.write(line + "\n")
        csv.writer(fh).writerow(names)
        for lo in range(0, n, CHUNK):
            rows = min(CHUNK, n - lo)
            fields = np.empty((rows, len(columns)), dtype=object)
            for j, c in enumerate(columns):
                fields[:, j], fmts[j] = _chunk_fields(c[lo : lo + rows], empty)
            row_fmt = ",".join(fmts) + "\r\n"
            fh.write((row_fmt * rows) % tuple(fields.ravel().tolist()))


def _write_text(path, command, cfg, lines):
    with open(path, "w") as fh:
        for line in _header(command, cfg):
            fh.write(line + "\n")
        for line in lines:
            fh.write(line + "\n")


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as err:
            raise SystemExit(f"error: {path}: not a JSON file: {err}") from None


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------- example1


def cmd_example1(args):
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 7)
    tune = args.tune or cfg.get("tuning", {}).get("enabled", False)
    grid_cfg = cfg.get("tuning", {}).get("grid", {})
    n_max = int(cfg.get("centers", {}).get("n", 35))
    eff = {"seed": seed, "tune": tune, "n_max": n_max, "grid": grid_cfg}
    out = _outdir(args)

    (v1, v2, v3), eigvals, _ = builtin.example1_covariance_directions(seed)
    if tune:
        results, _ = builtin.example1_tune(
            v1,
            v2,
            v3,
            seed,
            grid_size=int(grid_cfg.get("size", 50)),
            lo=float(grid_cfg.get("lo", 0.1)),
            hi=float(grid_cfg.get("hi", 100.0)),
        )
        shapes = {
            name: tuple(res.shapes[g] for g in sorted(res.shapes))
            for name, res in results.items()
        }
        for name, res in results.items():
            cols = [f"shape_g{g}" for g in sorted(res.shapes)]
            _write_csv(
                out / f"tuning_{name}.csv",
                _header("example1", eff),
                ["candidate"] + cols + ["max_validation_error"],
                [np.arange(len(res.table))] + list(res.table.T),
            )
    else:
        shapes = dict(builtin.REFERENCE_SHAPES)

    kernels = builtin.example1_kernels(v1, v2, v3, shapes)
    test = np.linspace(*builtin.EXAMPLE1_DOMAIN, 400)[:, None]
    ftest = builtin.example1_target(test)
    names = ["k1", "k2", "k3", "k4"]
    rows = []
    for N in range(1, n_max + 1):
        X = builtin.example1_centers(N)
        fX = builtin.example1_target(X.points)
        row = [N]
        for name in names:
            try:
                s = fit(kernels[name], X, fX, lu_fallback=True)
                pred = s.evaluate_many(test)
                row.append(float(np.max(np.linalg.norm(pred - ftest, axis=1))))
            except np.linalg.LinAlgError:
                row.append(None)
        rows.append(row)
    _write_csv(out / "decay.csv", _header("example1", eff),
               ["N"] + [f"err_{n}" for n in names], list(zip(*rows)))

    lines = ["covariance eigenvalues (ascending): "
             + " ".join(_fmt(v) for v in eigvals)]
    for name in names:
        lines.append(f"shapes {name}: " + " ".join(_fmt(v) for v in shapes[name]))
    _write_text(out / "summary.txt", "example1", eff, lines)
    print(f"example1: wrote {out / 'decay.csv'}")
    return 0


# ---------------------------------------------------------------- example2


def example2_run(seed=42, n_centers=100, include_sites=False):
    """Core computation behind the example2 subcommand.

    Returns per-prefix records and the per-point arrays needed by the
    validity checks (errors and bounds at every test point).  The kernel
    splits by congruence into three scalar kernels, and each of their
    Gramians on all the centers is factored once, in center order, by a
    Cholesky that skips the centers whose pivots vanish
    (``PowerEvaluator.nested``).  Each prefix reads its interpolant, its
    predictions at the test points and its deficiency matrices from the
    walk over those factors, with no evaluation of the interpolant;
    ``solver_info`` records the path, the number of blocks and the centers
    each block skipped among the prefix.  The scalar blocks on the sites
    followed by all the centers are built once, and each prefix's
    ||f - s||^2 is the quadratic form on their leading rows.
    """
    kernel = builtin.example2_kernel()
    lo, hi = builtin.EXAMPLE2_DOMAIN
    rng = np.random.default_rng(seed)
    sites = PointSet(rng.uniform(lo, hi, size=(EXAMPLE2_SITES, 2)))
    weights = rng.standard_normal((EXAMPLE2_SITES, kernel.m))
    centers_pts = rng.uniform(lo, hi, size=(n_centers, 2))
    if include_sites:
        centers_pts[-EXAMPLE2_SITES:] = sites.points
    centers = PointSet(centers_pts, d=2)
    f = NativeSpanFunction(kernel, sites, weights)

    g = np.linspace(lo, hi, EXAMPLE2_TEST_GRID)
    T = np.array([(a, b) for a in g for b in g])
    fT = f.evaluate_many(T)
    f_norm = float(np.sqrt(native_norm_sq(f)))

    pe = PowerEvaluator.nested(kernel, centers)
    Z = PointSet(np.vstack([sites.points, centers.points]))
    blocks = list(_blocks(kernel, pe.split, Z))
    records = []
    for i, (s, pred, _, D) in enumerate(pe.prefixes(f.evaluate_many(centers.points), T), 1):
        r_norm = float(np.sqrt(_residual_form(pe.split, blocks, Z.n, weights,
                                              s.coeff_blocks())))
        r_norm = min(r_norm, f_norm)

        E = fT - pred
        err2 = np.linalg.norm(E, axis=1)
        errinf = np.max(np.abs(E), axis=1)
        err1 = np.sum(np.abs(E), axis=1)

        factors = bound_factors(D)
        errs = {"two": err2, "inf": errinf, "one": err1}
        records.append(
            {
                "i": i,
                "solver_info": s.solver_info,
                "residual_norm": r_norm,
                "f_norm": f_norm,
                "errors": errs,
                "delta1": {k: v * r_norm for k, v in factors.items()},
                "delta2": {k: v * f_norm for k, v in factors.items()},
            }
        )
    return records


def cmd_example2(args):
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 42)
    include_sites = args.include_sites or cfg.get("include_sites", False)
    n_centers = int(cfg.get("centers", {}).get("n", 100))
    eff = {"seed": seed, "include_sites": include_sites, "n_centers": n_centers}
    out = _outdir(args)

    records = example2_run(seed=seed, n_centers=n_centers,
                           include_sites=include_sites)
    info = records[-1]["solver_info"] if records else {"path": "empty", "skipped": []}
    header = _header("example2", eff) + [
        f"# solver: nested path={info['path']} "
        f"skipped={','.join(str(k) for k in info['skipped'])}"]
    for norm in ("two", "inf", "one"):
        rows = [
            [
                rec["i"],
                float(np.max(rec["errors"][norm])),
                float(np.max(rec["delta1"][norm])),
                float(np.max(rec["delta2"][norm])),
            ]
            for rec in records
        ]
        _write_csv(
            out / f"bounds_{norm}_norm.csv",
            header,
            ["i", "max_error", "delta1", "delta2"],
            list(zip(*rows)),
        )
    _write_csv(
        out / "residual.csv",
        header,
        ["i", "residual_norm", "f_norm"],
        [[rec[k] for rec in records] for k in ("i", "residual_norm", "f_norm")],
    )
    print(f"example2: wrote bound CSVs to {out}")
    return 0


# ---------------------------------------------------------- counterexample


def counterexample_report():
    kernel = builtin.counterexample_kernel()
    X = PointSet(np.array([[0.0], [1.0]]))
    base = kernel.gramian(X)
    _, lam_base = is_psd(base)
    # blocks[i, j] = k(x_i, x_j); square each block as a matrix
    n, m = X.n, kernel.m
    blocks = base.reshape(n, m, n, m).transpose(0, 2, 1, 3)
    squared = symmetrize((blocks @ blocks).transpose(0, 2, 1, 3).reshape(n * m, n * m))
    w, _ = sym_eig(squared)
    return {
        "base_lam_min": lam_base,
        "square_matrix": squared,
        "square_lam_min": float(w[-1]),
    }


def cmd_counterexample(args):
    eff = {"seed": None}
    rep = counterexample_report()
    lines = [
        "pointwise-square Gramian on centers {0, 1}:",
    ]
    for row in rep["square_matrix"]:
        lines.append("  " + "  ".join(_fmt(v) for v in row))
    lines.append(f"base Gramian lambda_min   : {_fmt(rep['base_lam_min'])}")
    lines.append(f"square Gramian lambda_min : {_fmt(rep['square_lam_min'])}")
    for line in lines:
        print(line)
    if args.out:
        out = _outdir(args)
        _write_text(out / "counterexample.txt", "counterexample", eff, lines)
    return 0


# ------------------------------------------------------------------ analyze


def _load_kernel_file(path, unchecked=False):
    with open(path) as fh:
        try:
            doc = json.load(fh)
            if "kernel" in doc:
                doc = doc["kernel"]
            return SeparableKernel.from_dict(doc, unchecked=unchecked)
        except (KeyError, TypeError, ValueError) as err:
            raise SystemExit(f"error: cannot parse kernel spec {path}: {err}") from None


def cmd_analyze(args):
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    input_dim = int(cfg.get("input_dim", 2))
    eff = {"seed": seed, "input_dim": input_dim,
           "kernel_file": Path(args.kernel_file).name}
    kernel = _load_kernel_file(args.kernel_file, unchecked=True)
    report = analyze(kernel, input_dim=input_dim, seed=seed)
    lines = list(report.lines())

    rng = np.random.default_rng(seed)
    pairs = [
        (rng.uniform(-1, 1, input_dim), rng.uniform(-1, 1, input_dim))
        for _ in range(30)
    ]
    values = [kernel(x, y) for x, y in pairs]
    if commuting_family_check(values):
        try:
            rec = recover_uncoupled(kernel, pairs)
            lines.append(f"recovered orthogonal decomposition: {len(rec.groups)} terms")
            for l, (grp, Q) in enumerate(zip(rec.groups, rec.coeffs)):
                lines.append(f"  term {l}: diagonal indices {list(grp)}")
                for row in Q:
                    lines.append("    " + "  ".join(_fmt(v) for v in row))
        except NotCommutingError:
            lines.append("sampled values commute pairwise only marginally; "
                         "no recovery")
    else:
        lines.append("sampled kernel values do not commute; no orthogonal "
                     "decomposition exists")
    for line in lines:
        print(line)
    if args.out:
        out = _outdir(args)
        _write_text(out / "analysis.txt", "analyze", eff, lines)
    return 0


# ----------------------------------------------------------------- fit/eval


def _read_data_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    if not rows:
        raise SystemExit(f"error: {path}: no header row")
    header = rows[0][1]
    d = sum(1 for h in header if h.startswith("x_"))
    m = sum(1 for h in header if h.startswith("f_"))
    names = [f"x_{k}" for k in range(1, d + 1)] + [f"f_{k}" for k in range(1, m + 1)]
    if d == 0 or sorted(header) != sorted(names):
        raise SystemExit(f"error: {path}: header {','.join(header)} does not name "
                         "x_1..x_d (d >= 1) and f_1..f_m once each, in any order")
    values, cols = [], [header.index(h) for h in names]
    for line, r in rows[1:]:
        if len(r) != len(header):
            raise SystemExit(
                f"error: {path}: line {line} has {len(r)} fields, the header has {len(header)}"
            )
        try:
            values.append([float(r[j]) for j in cols])
        except ValueError as err:
            raise SystemExit(f"error: {path}: line {line}: {err}") from None
    data = np.array(values).reshape(len(values), len(header))
    return data[:, :d], data[:, d:] if m else None, d, m


def cmd_fit(args):
    kernel = _load_kernel_file(args.kernel)
    X, F, d, m = _read_data_csv(args.data)
    if F is None or m != kernel.m:
        raise SystemExit(
            f"error: data has {m} value columns but the kernel expects {kernel.m}"
        )
    try:
        s = fit(kernel, PointSet(X, d=d), F)
    except (ConditioningError, ValueError) as err:
        raise SystemExit(f"error: {err}")
    save_model(s, args.out_model)
    info = s.solver_info
    print(f"fit: wrote {args.out_model} (path={info['path']}, "
          f"residual={info['residual']:.3e}, blocks={info['blocks']})")
    return 0


def cmd_eval(args):
    if not (np.isfinite(args.residual_norm) and args.residual_norm >= 0):
        raise SystemExit(
            f"error: --residual-norm must be finite and >= 0, got {args.residual_norm}"
        )
    try:
        s = load_model(args.model)
    except (TypeError, ValueError) as err:
        raise SystemExit(f"error: {args.model}: {err}") from None
    X, _, d, _ = _read_data_csv(args.data)
    if d != s.centers.d and s.centers.n:
        raise SystemExit(
            f"error: points have dimension {d}, model expects {s.centers.d}"
        )
    eff = {"seed": None, "model": Path(args.model).name, "bounds": bool(args.bounds)}
    names = [f"x_{j+1}" for j in range(d)] + [f"s_{j+1}" for j in range(s.kernel.m)]
    columns = list(X.T) + list(s.evaluate_many(X).T)
    header = _header("eval", eff)
    bounds_note = ""
    if args.bounds:
        pe = PowerEvaluator.build(s.kernel, s.centers)
        bounds_note = f" bounds path={pe.path}"
        header.append(f"# solver: bounds path={pe.path}")
        factors = pe.bound_factors(X)
        names += ["delta1_two", "delta1_inf", "delta1_one"]
        columns += [factors[k] * args.residual_norm for k in ("two", "inf", "one")]
    _write_csv(args.out_csv, header, names, columns)
    print(f"eval: wrote {args.out_csv}{bounds_note}")
    return 0


# -------------------------------------------------------------------- main


def build_parser():
    p = argparse.ArgumentParser(
        prog="mvk",
        description="Interpolation with separable matrix-valued kernels",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default="out", help="output directory")

    sp = sub.add_parser("example1", help="error decay over center counts")
    common(sp)
    sp.add_argument("--tune", action="store_true",
                    help="run a fresh shape grid search instead of the "
                         "reference shapes")
    sp.set_defaults(func=cmd_example1)

    sp = sub.add_parser("example2", help="error bounds vs measured errors")
    common(sp)
    sp.add_argument("--include-sites", action="store_true",
                    help="force the span sites of the target into the centers")
    sp.set_defaults(func=cmd_example2)

    sp = sub.add_parser("counterexample",
                        help="pointwise square of a PD kernel turning indefinite")
    sp.add_argument("--out", default=None, help="optional output directory")
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("analyze", help="decomposition report for a kernel file")
    sp.add_argument("kernel_file")
    sp.add_argument("--config", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("fit", help="fit an interpolant to CSV data")
    sp.add_argument("--data", required=True, help="CSV with x_1..x_d,f_1..f_m")
    sp.add_argument("--kernel", required=True, help="kernel spec JSON")
    sp.add_argument("--out-model", required=True, help="model file to write")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("eval", help="evaluate a fitted model on points")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True, help="CSV with x_1..x_d columns")
    sp.add_argument("--out-csv", required=True)
    sp.add_argument("--bounds", action="store_true",
                    help="add the three per-point bound columns")
    sp.add_argument("--residual-norm", type=float, default=1.0,
                    help="native norm of f - s used in the bound columns")
    sp.set_defaults(func=cmd_eval)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as err:  # a file that is missing or cannot be read or written
        raise SystemExit(f"error: {err.filename}: {err.strerror}" if err.filename
                         else f"error: {err}") from None


if __name__ == "__main__":
    sys.exit(main())
