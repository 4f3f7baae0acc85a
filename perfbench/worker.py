"""Jobs of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --deadline T --run-id ID --out DIR

Imports fpplab from the checkout's ``src``, builds the inputs from the seed
(``ready`` marks the end of the first set-up on the system-wide monotonic
clock), runs the workload's fixed job, repeated until ``--deadline``, and
prints one JSON line with each job's wall time, peak resident memory,
operation counts and accuracy figures.  With
``--trace 1`` the job runs under the tracer, the spans are written to
``DIR/spans-ID.json`` and the per-layer figures are added to the line.
"""
import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_fpplab():
    """Import fpplab from this checkout only; anything else is an error."""
    sys.path.insert(0, SRC)
    import fpplab
    if os.path.dirname(os.path.dirname(os.path.abspath(fpplab.__file__))) != SRC:
        raise ImportError(f"fpplab imported from {fpplab.__file__}, not from {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import_fpplab()
    import numpy
    import scipy

    import tracing
    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    ledger = workloads.Ledger()
    tracer = tracing.Tracer(args.run_id) if args.trace else tracing.NoTrace()
    walls, ready = [], None
    # Untraced, the job repeats while the next one is expected to end before
    # --deadline (on the system-wide monotonic clock); traced, it runs once.
    while not walls or (not args.trace and time.monotonic() + walls[-1] <= args.deadline):
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
        try:
            inputs = setup(args.seed, workloads.FULL, workdir)
            if ready is None:
                ready = time.monotonic()
            with tracer.installed():
                start = time.perf_counter()
                with tracer.span(tracing.ROOT):
                    run(inputs, ledger, tracer)
                walls.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "ready": ready, "walls": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": ledger.attempted, "failures": ledger.failures,
        "figures": ledger.figures,
        "accuracy_digits": workloads.accuracy_digits(args.workload, ledger.figures),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if args.trace:
        tracer.write(os.path.join(args.out, f"spans-{args.run_id}.json"))
        result["layers"] = {**tracing.layer_metrics(tracer),
                            **{f: ledger.figures.get(f, 0.0) for f in workloads.FIGURES}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
