"""Benchmark of the mvk command-line interface.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are made from the seed (see ``workloads.py``).  Each
iteration starts a fresh ``python child.py`` that imports ``mvk.cli`` from
``src/`` and times each ``mvk.cli.main(argv)`` call; iterations follow one
another (a closed loop with one client) until the next one would end after
``--seconds``.  Every iteration's outputs are checked.  An untraced run then
fills the time left with children that run only ``mvk fit`` (or nothing but
the import), for more fit_s and setup_s samples.

``--trace 0`` prints the end-to-end metrics of untraced iterations.
``--trace 1`` alternates untraced and traced iterations and prints the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# BLAS threads in the child, capped at the cores this process may use.
BLAS_THREADS = 2
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "fit_s": "s",
    "eval_s": "s",
    "eval_pts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Wrapped callables whose calls, total and self time are reported.
LAYER_CALLABLES = [
    "backends.gaussian_cross",
    "kernels.ScalarKernel.cross",
    "kernels.SeparableKernel.diag_value",
    "kernels.SeparableKernel.gramian",
    "kernels.SeparableKernel.cross_many",
    "linalg.pinv_sym",
    "linalg.sym_eig",
    "interpolation.fit",
    "interpolation.Interpolant.evaluate_many",
    "interpolation.residual_norm_sq",
    "interpolation.native_norm_sq",
    "interpolation.save_model",
    "interpolation.load_model",
    "power.PowerEvaluator.build",
    "power.PowerEvaluator.deficiency_many",
    "tuning.select_shapes",
    "cli.cmd_example1",
    "cli.cmd_example2",
    "cli.cmd_fit",
    "cli.cmd_eval",
]
# Counts computed from argument shapes and results; they repeat exactly.
COMPUTED = {
    "backends.gaussian_cross.entries": "count",
    "kernels.ScalarKernel.cross.entries": "count",
    "kernels.SeparableKernel.gramian.bytes": "B",
    "kernels.SeparableKernel.cross_many.bytes": "B",
    "linalg.pinv_sym.n3": "count",
    "linalg.sym_eig.n3": "count",
    "interpolation.fit.path.cholesky": "count",
    "interpolation.fit.path.lu_fallback": "count",
    "interpolation.fit.path.pseudo_inverse": "count",
    "tuning.select_shapes.candidates": "count",
    "tuning.select_shapes.failed": "count",
    "cli.out_bytes": "B",
}
MAXIMA = {"interpolation.fit.residual_max": "ratio"}
PER_LAYER = {
    **{f"{c}.{k}": u for c in LAYER_CALLABLES
       for k, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))},
    **COMPUTED,
    **MAXIMA,
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# Top-level spans must cover the traced wall time up to this share.
UNATTRIBUTED_MAX_SHARE = 0.05

NO_WAIT_NOTE = ("wait time: no metric; nothing in mvk waits on a queue or lock "
                "(single-threaded Python over BLAS)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    """Commit of the checkout from .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(calls, workdir, index, trace):
    """Run one child; returns (result dict, None) or (None, error text)."""
    spec = workdir / f"spec{index}.json"
    result = workdir / f"result{index}.json"
    spec.write_text(json.dumps({"calls": calls, "trace": trace, "result": str(result)}))
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)],
                              cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result.is_file():
        return None, f"child exited with {proc.returncode}: {proc.stderr[-2000:]}"
    res = json.loads(result.read_text())
    res["setup_s"] = res["setup_done"] - start
    return res, None


def out_bytes(paths):
    total = 0
    for p in map(Path, paths):
        files = [p] if p.is_file() else [f for f in p.rglob("*") if f.is_file()]
        total += sum(f.stat().st_size for f in files)
    return total


def tail(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(name, unit, samples):
    line = f"{name}: median {statistics.median(samples):.6g} {unit}"
    t = tail(samples)
    if t is None:
        line += f" (n={len(samples)}; a tail percentile needs >= 11 samples)"
    else:
        line += f", p{t[0]:.0f} {t[1]:.6g} {unit} (n={len(samples)})"
    return line + " samples " + " ".join(f"{v:.4g}" for v in samples)


def iterate(workload, workdir, seconds, trace):
    """Closed loop of child iterations, then filler children.

    Returns (records, attempted, failed).  A record's kind is "plain" or
    "traced" for an iteration of the whole workload and "filler" for a
    child that runs only the workload's ``mvk fit`` call, or no call if the
    workload has none of its own, in the time left that is too short for
    another iteration.  Fillers add fit_s and setup_s samples spread over
    the end of the run; traced runs have none.
    """
    reference = workload.prepare()
    records = []
    counts = {"attempted": 0, "failed": 0}

    def attempt(kind, calls, check):
        index = len(records)
        t0 = time.monotonic()
        res, err = run_child(calls, workdir, index, kind == "traced")
        rec = {"kind": kind, "ok": False, "res": res, "error": err,
               "duration": time.monotonic() - t0}
        if res is None:
            counts["attempted"] += 1
            counts["failed"] += 1
        else:
            done = res["calls"]
            counts["attempted"] += len(done)
            if any(c["error"] for c in done):
                counts["failed"] += 1
                rec["error"] = next(c["error"] for c in done if c["error"])
            else:
                try:
                    check()
                    rec["ok"] = True
                    rec["out_bytes"] = out_bytes(workload.outputs)
                except Exception as exc:  # a wrong or unreadable output
                    counts["failed"] += 1
                    rec["error"] = f"output check failed: {exc!r}"
        if not rec["ok"]:
            print(f"{kind} child {index}: FAILED: {rec['error']}", file=sys.stderr)
        records.append(rec)
        return rec

    start = time.monotonic()
    while True:
        kind = "traced" if trace and len(records) % 2 == 1 else "plain"
        attempt(kind, workload.calls, lambda: workload.check(reference))
        done = {r["kind"] for r in records if r["ok"]}
        have = "plain" in done and (not trace or "traced" in done)
        longest = max(r["duration"] for r in records)
        if time.monotonic() - start + longest > seconds and (have or counts["failed"]):
            break

    if not trace and have:
        first_only = workload.check_first is not None
        calls = workload.calls[:1] if first_only else []
        plain = [r for r in records if r["ok"]]
        longest = max(r["res"]["setup_s"] + (r["res"]["calls"][0]["seconds"] if first_only
                                              else 0.0) for r in plain)
        while time.monotonic() - start + longest <= seconds:
            rec = attempt("filler", calls, workload.check_first or (lambda: None))
            longest = max(longest, rec["duration"])
    return records, counts["attempted"], counts["failed"]


def end_to_end(workload, plain, fillers):
    series = {k: [] for k in END_TO_END}
    for r in plain:
        calls = r["res"]["calls"]
        series["wall_s"].append(sum(c["seconds"] for c in calls))
        series["eval_s"].append(calls[-1]["seconds"])
        series["eval_pts_per_s"].append(workload.eval_points / calls[-1]["seconds"])
        series["peak_rss_mb"].append(r["res"]["maxrss_mb"])
    for r in plain + fillers:
        if r["res"]["calls"]:
            series["fit_s"].append(r["res"]["calls"][0]["seconds"])
        series["setup_s"].append(r["res"]["setup_s"])
    return series


def per_layer(plain, traced):
    """Per-layer metrics of the traced iterations; (metrics, problems)."""
    problems = []
    reports = [r["res"]["trace"] for r in traced]
    counts = [{**rep["counts"], "cli.out_bytes": r["out_bytes"],
               **{f"{k}.calls": v["calls"] for k, v in rep["spans"].items()}}
              for r, rep in zip(traced, reports)]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("computed counts differ between traced iterations")

    metrics = {}
    for name in LAYER_CALLABLES:
        spans = [rep["spans"].get(name) for rep in reports]
        metrics[f"{name}.calls"] = counts[0].get(f"{name}.calls", 0)
        for k in ("total_s", "self_s"):
            metrics[f"{name}.{k}"] = statistics.median(s[k] if s else 0.0 for s in spans)
    for name in COMPUTED:
        metrics[name] = counts[0].get(name, 0)
    for name in MAXIMA:
        metrics[name] = max(rep["maxima"].get(name, 0.0) for rep in reports)

    walls = [sum(c["seconds"] for c in r["res"]["calls"]) for r in traced]
    plain_walls = [sum(c["seconds"] for c in r["res"]["calls"]) for r in plain]
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(plain_walls)
    unattributed = [w - rep["top_level_s"] for w, rep in zip(walls, reports)]
    metrics["trace.unattributed_s"] = statistics.median(unattributed)
    for w, u in zip(walls, unattributed):
        if not -1e-6 <= u <= UNATTRIBUTED_MAX_SHARE * w:
            problems.append(f"top-level spans leave {u:.4f} s of {w:.4f} s unattributed")
    missing = [n for n in LAYER_CALLABLES if n not in reports[0]["spans"]]
    if missing:
        print("trace: not found in mvk (metrics read 0): " + ", ".join(missing))
    return metrics, problems


def print_spans(traced):
    rep = traced[0]["res"]["trace"]
    rows = sorted(rep["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    print("spans of the first traced iteration, by self time:")
    for name, s in rows:
        if s["calls"]:
            print(f"  {name:45s} calls {s['calls']:8d}  total {s['total_s']:9.4f} s"
                  f"  self {s['self_s']:9.4f} s")


def _terminate(signum, frame):
    # Unwinds through subprocess.run, which kills and reaps the running
    # child, and through the cleanup of the scratch directory.
    raise SystemExit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "mvk" / "cli.py").is_file():
        print(f"error: no mvk sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads

    import workloads  # imports numpy, after the thread count is fixed

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        w = workloads.make(args.workload, workdir, args.seed)
        records, attempted, failed = iterate(w, workdir, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain, traced, fillers = ([r for r in records if r["ok"] and r["kind"] == k]
                              for k in ("plain", "traced", "filler"))
    if not plain or (args.trace and not traced):
        print("error: no iteration completed correctly", file=sys.stderr)
        return 1

    env = dict(plain[0]["res"]["environment"], git_commit=git_commit())
    print(f"mvk benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"load: closed loop, 1 client, one child process per iteration, "
          f"{len(plain)} untraced + {len(traced)} traced iterations, "
          f"{len(fillers)} filler children")
    series = end_to_end(w, plain, fillers)
    for name, unit in END_TO_END.items():
        print(describe(name, unit, series[name]))
    print(f"fail_rate: {failed}/{attempted} CLI calls = {failed / attempted:.6g}")
    print(NO_WAIT_NOTE)

    correct = failed == 0
    if args.trace:
        metrics, problems = per_layer(plain, traced)
        print_spans(traced)
        for p in problems:
            print(f"trace check failed: {p}", file=sys.stderr)
        correct = correct and not problems
        units = PER_LAYER
    else:
        metrics = {k: statistics.median(v) for k, v in series.items()}
        units = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
