"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They start the benchmark in subprocesses, so tracing never patches the
``mvk`` modules of the test process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    counted = [k for k in run.PER_LAYER if k.endswith(".calls") or k in run.COMPUTED]
    first, second = (_bench(workload, seed=3, trace=1) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert {k: first["metrics"][k] for k in counted} == {
        k: second["metrics"][k] for k in counted}


BINDINGS = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import mvk.cli
from mvk import cli, interpolation, linalg, power, tuning
from tracing import BindingError, Tracer

originals = (interpolation.fit, linalg.pinv_sym)
tracer = Tracer().install()
assert cli.fit is tuning.fit is interpolation.fit is not originals[0]
assert power.pinv_sym is interpolation.pinv_sym is linalg.pinv_sym is not originals[1]
power.PowerEvaluator.stale = staticmethod(originals[1])
try:
    tracer.check_bindings()
except BindingError as err:
    assert "PowerEvaluator.stale" in str(err), err
else:
    raise SystemExit("a stale original was not detected")
"""


def test_names_imported_by_name_are_rebound():
    code = BINDINGS.format(src=str(ROOT / "src"), here=str(HERE))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "example2", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
