"""fpplab benchmark: times and certifies one workload.

    python3 perfbench/run.py --workload mc_certify|pde_certify|cli_pipeline|all \
        --seed N --seconds S --trace 0|1

Jobs run in fresh processes (worker.py) with BLAS threads capped at the
number of CPUs: three processes that each repeat the job through a third of
the S seconds, or with --trace 1 alternating untraced and traced one-job
processes for S seconds (at least three pairs).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
lines before it list every metric with its unit, the seed, the CPU count, the
BLAS thread cap and the Python/numpy/scipy versions, and the same record is
written to .perfbench_out/.  See README.md for what each metric measures.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("mc_certify", "pde_certify", "cli_pipeline")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
PROCESSES = 3             # at least, so that setup_s is a median of three
BUDGET_S = 150.0          # no new round starts if it could end after this
LIMIT_S = 170.0           # every worker is killed by then


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    threads = str(os.cpu_count() or 1)
    for var in BLAS_VARS:
        env[var] = threads
    return env


def run_worker(workload, seed, trace, deadline, run_id, env, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--deadline", repr(deadline),
           "--run-id", run_id, "--out", OUT]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{run_id}: worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{run_id}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - spawn
    return result


def warm_up(env, timeout):
    """Import fpplab once, untimed, so that bytecode compilation and a cold
    file cache do not land in the first process's set-up time."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); "
            "import fpplab.cli, fpplab.verify, fpplab.spectral")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"cannot import fpplab from {SRC}\n{proc.stderr[-4000:]}")


def measure(workload, seed, seconds, trace):
    """Run the worker processes and reduce them to medians.  Untraced, three
    processes each repeat the job through a third of ``seconds``; traced,
    pairs of one-job untraced and traced processes alternate until
    ``seconds`` pass."""
    env = child_env()
    limit = time.monotonic() + LIMIT_S
    warm_up(env, LIMIT_S)
    start = time.monotonic()
    kinds = (0, 1) if trace else (0,)
    reps = {0: [], 1: []}
    rounds = 0
    while True:
        round_start = time.monotonic()
        for kind in kinds:
            run_id = f"{workload}-s{seed}-r{rounds}-t{kind}"
            deadline = 0.0 if trace else start + (rounds + 1) * seconds / PROCESSES
            reps[kind].append(run_worker(workload, seed, kind, deadline, run_id, env,
                                         max(limit - time.monotonic(), 1.0)))
        rounds += 1
        now = time.monotonic()
        if rounds >= PROCESSES and (not trace or now - start >= seconds):
            break
        if now + (now - round_start) - start > BUDGET_S:
            break

    every = reps[0] + reps[1]
    attempted = sum(r["attempted"] for r in every)
    failures = [f for r in every for f in r["failures"]]
    plain = reps[0]
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "blas_threads": int(env[BLAS_VARS[0]]),
        "versions": plain[0]["versions"], "processes": len(every),
        "jobs": sum(len(r["walls"]) for r in every),
        "attempted": attempted, "failures": failures,
        "per_process": {kind: [{k: r[k] for k in ("setup_s", "walls", "peak_rss_mb")}
                               for r in reps[kind]] for kind in kinds},
        "end_to_end": {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(w for r in plain for w in r["walls"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "pass_ratio": 1.0 - len(failures) / attempted,
            "accuracy_digits": statistics.median(r["accuracy_digits"] for r in plain),
        },
    }
    if trace:
        traced = reps[1]
        layers = {}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced)
        traced_wall = statistics.median(w for r in traced for w in r["walls"])
        overhead = traced_wall - record["end_to_end"]["wall_s"]
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_pct"] = 100.0 * overhead / record["end_to_end"]["wall_s"]
        record["per_layer"] = layers
    return record


def result_line(record, spec):
    """The contract line: the metrics of BENCHMARK.json for this trace mode."""
    group = "per_layer" if record["trace"] else "end_to_end"
    values = record[group]
    metrics = {}
    for m in spec[group]:
        name = m["name"]
        if name not in values:
            raise BenchError(f"metric {name} not produced for {record['workload']}")
        metrics[name] = {"value": values[name], "unit": m["unit"]}
    return {"correct": not record["failures"], "attempted": record["attempted"],
            "failed": len(record["failures"]), "metrics": metrics}


def report(record, line):
    print(f"# {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"nproc={record['nproc']}  blas_threads={record['blas_threads']}  "
          f"processes={record['processes']}  jobs={record['jobs']}  "
          + "  ".join(f"{k}={v}" for k, v in record["versions"].items()))
    for name, m in line["metrics"].items():
        print(f"#   {name:48s} {m['value']:>16.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"#   FAILED {failure}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(SRC, "fpplab", "__init__.py")):
            raise BenchError(f"no fpplab sources under {SRC}")
        os.makedirs(OUT, exist_ok=True)

        lines = {}
        for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
            record = measure(workload, args.seed, args.seconds, args.trace)
            line = result_line(record, spec)
            path = os.path.join(OUT, f"result-{workload}-s{args.seed}-t{args.trace}.json")
            with open(path, "w") as fh:
                json.dump({**record, "result": line}, fh, indent=1)
            report(record, line)
            lines[workload] = line
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
