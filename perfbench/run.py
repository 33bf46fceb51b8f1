"""specgp benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload small-blocks --seed 10 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run and writes its spans to ``perfbench/out/trace-<workload>.json``.
Report lines go to stdout first; the last line is the JSON result.  Exits
non-zero without a result when the package source is missing.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_package():
    if not os.path.isfile(os.path.join(SRC, "specgp", "__init__.py")):
        raise SystemExit(f"specgp source not found under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import specgp

    if not os.path.abspath(specgp.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported specgp from {specgp.__file__}, not from {SRC}")
    return specgp


def environment():
    import numpy as np
    import scipy

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def execute(workload, seed, seconds, trace, predict=None):
    """Run one workload; returns (run, correct, metrics, tracer or None)."""
    import harness

    workdir = os.path.join(OUT, f"work-{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = harness.Run(workload, seed, workdir, predict=predict)
        if trace:
            correct, metrics, tracer = harness.measure_traced(run)
        else:
            correct, metrics = harness.measure(run, seconds)
            tracer = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return run, correct, metrics, tracer


def result_line(run, correct, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run, correct, metrics, tracer = execute(workload, args.seed, args.seconds, args.trace)

    env = environment()
    print("env " + json.dumps(env))
    print("workload " + json.dumps(vars(workload) | {"seed": args.seed, "trace": args.trace}))
    print("digests " + json.dumps(run.ref))
    print("report " + json.dumps(run.report, default=float))
    for note in run.ledger.notes:
        print("failure " + note)
    if tracer is not None:
        path = os.path.join(OUT, f"trace-{args.workload}.json")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"trace {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}")
    print(result_line(run, correct, metrics))


if __name__ == "__main__":
    main()
