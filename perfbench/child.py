"""One benchmark iteration in a fresh interpreter.

Usage: ``python child.py SPEC.json``.  SPEC names the argv lists to pass to
``mvk.cli.main`` in order, whether to trace, and where to write the result.
The parent starts its clock just before it starts this process, so the
monotonic time at which ``import mvk.cli`` finishes gives the set-up time.
"""

import json
import os
import resource
import sys
import time
import traceback


def _environment():
    import numpy
    import scipy

    from mvk.backends import backend_name

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mvk_backend": backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    import mvk.cli

    setup_done = time.monotonic()
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer().install()

    calls = []
    for argv in spec["calls"]:
        error = None
        t0 = time.perf_counter()
        try:
            rc = mvk.cli.main(argv)
        except SystemExit as exc:
            rc, error = exc.code, f"SystemExit({exc.code!r})"
        except Exception:  # the benchmark counts the failure and goes on
            rc, error = None, traceback.format_exc()
        seconds = time.perf_counter() - t0
        if error is None and rc not in (0, None):
            error = f"exit code {rc}"
        calls.append({"seconds": seconds, "error": error})
        if error is not None:
            break

    result = {
        "setup_done": setup_done,
        "calls": calls,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer else None,
        "environment": _environment(),
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
