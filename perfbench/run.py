"""Benchmark of setsyl: four seeded workloads, checked against known answers.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N
    python3 perfbench/run.py --self-test [--seed N]

Workloads: mls-scripts, mls-search, combine, convexity (see README.md).
A run makes one seeded list of operations and runs all of it in PASSES
fresh processes one after the other (perfbench/worker.py).  Each pass
times its operations in CPU time and also times a fixed calibration loop
(perfbench/calibrate.py) between them; its times are scaled by the
loop's reference time over its median time in that pass, which takes out
most of the drift in the host's speed.  An operation's latency is the
mean of its scaled times.  Between the passes it times
`import setsyl.cli` in fresh interpreters, scaled the same way.  With
--trace 1 it also runs the list once more with spans recorded and
reports per-layer figures and the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; with --workload all it maps each workload to that
object.  Result and trace files go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calibrate import CALIBRATION_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("mls-scripts", "mls-search", "combine", "convexity")
DEADLINE_S = 170  # a run must end within 180 s
PASSES = 2  # fresh worker processes over the same operations
SETUP_SAMPLES = 4  # imports timed before the first pass and after each
IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, 'perfbench'); sys.path.insert(0, 'src')\n"
    "from calibrate import CALIBRATION_REF_S, calibration\n"
    "cal = [calibration() for _ in range(5)]\n"
    "t = time.process_time(); import setsyl.cli; t = time.process_time() - t\n"
    "cal += [calibration() for _ in range(5)]\n"
    "print(t * CALIBRATION_REF_S / statistics.median(cal))"
)


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # Fixed string hashing, so one seed gives the same work in every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, deadline: float) -> str:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:2]))
    try:
        done = subprocess.run([sys.executable] + args, cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(args)}") from None
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["(no output)"]
        raise BenchError(f"{' '.join(args)} exited {done.returncode}: {tail[0]}")
    return done.stdout.strip().splitlines()[-1]


def import_seconds(deadline: float, n: int) -> list:
    """Times of `import setsyl.cli` in n fresh interpreters."""
    return [float(_child(["-c", IMPORT_PROBE], deadline)) for _ in range(n)]


def worker(args, deadline: float, inputs: str, trace_file=None) -> dict:
    # The whole run's --seconds are shared by the passes, which all run the
    # list the first one builds.
    argv = [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds / PASSES),
            "--inputs", inputs]
    if trace_file:
        argv += ["--trace", "--trace-file", trace_file]
    return json.loads(_child(argv, deadline))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def scaled(res: dict) -> list:
    """A pass's latencies at the reference speed (None where an op raised)."""
    factor = CALIBRATION_REF_S / statistics.median(res["calibration_s"])
    return [None if t is None else t * factor for t in res["latencies_s"]]


def combined(passes: list, times=scaled) -> dict:
    """Per-operation mean time over passes of the same operations."""
    lat = [statistics.fmean(t) for t in zip(*(times(p) for p in passes))
           if None not in t]
    return {"latencies_s": lat, "busy_s": sum(lat),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}


def end_to_end(res: dict, setup_s: float) -> dict:
    lat = res["latencies_s"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(lat) / res["busy_s"], "1/s"),
        "latency_p50_ms": _metric(1000 * deciles[4], "ms"),
        "latency_p90_ms": _metric(1000 * deciles[8], "ms"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }


def per_layer(traced: dict, plain: list) -> dict:
    out = {}
    for name, value in traced["layers"].items():
        unit = "ms" if name.endswith("_ms") else "count"
        out[name] = _metric(value, unit)
    # One traced pass against the median untraced pass.
    def busy(res):
        return sum(t for t in scaled(res) if t is not None)

    overhead = 100 * (busy(traced) / statistics.median(busy(p) for p in plain) - 1)
    out["trace.overhead_pct"] = _metric(overhead, "%")
    return out


def bench(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    # One unmeasured import first writes the bytecode cache, which users pay
    # once, not per run.  Samples around every pass see the machine at
    # several times, which evens out slow spells.
    import_seconds(deadline, 1)
    imports = import_seconds(deadline, SETUP_SAMPLES)
    inputs = os.path.join(OUT, f"inputs-{args.workload}-seed{args.seed}.pickle")
    if os.path.exists(inputs):
        os.remove(inputs)
    runs = []
    for _ in range(PASSES):
        runs.append(worker(args, deadline, inputs))
        imports += import_seconds(deadline, SETUP_SAMPLES)
    setup_s = statistics.median(imports)
    plain = runs[0]
    if args.trace:
        trace_file = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        runs.append(worker(args, deadline, inputs, trace_file))
        metrics = per_layer(runs[-1], runs[:PASSES])
        unscaled = {}
    else:
        metrics = end_to_end(combined(runs), setup_s)
        unscaled = end_to_end(combined(runs, lambda p: p["latencies_s"]), setup_s)
    os.remove(inputs)
    wrong = [w for r in runs for w in r["wrong"]]
    result = {
        "correct": not wrong,
        "attempted": sum(r["attempted"] for r in runs[:PASSES]),
        "failed": sum(r["failed"] for r in runs[:PASSES]),
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  errors=plain["errors"], wrong=wrong, families=plain["families"],
                  pass_cpu_s=[r["cpu_s"] for r in runs], import_s=imports,
                  unscaled={k: m["value"] for k, m in unscaled.items() if k != "setup_s"},
                  calibration_median_s=[statistics.median(r["calibration_s"]) for r in runs],
                  passes=[{k: r[k] for k in ("latencies_s", "calibration_s")} for r in runs],
                  python=sys.version.split()[0], nproc=os.cpu_count())
    name = f"result-{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(detail, fh, indent=1)
    for w in wrong:
        print("WRONG:", w)
    for k, m in metrics.items():
        print(f"{args.workload} {k} = {m['value']:.6g} {m['unit']}")
    return result


def self_test(args) -> int:
    argv = [os.path.join(HERE, "selftest.py"), "--seed", str(args.seed)]
    line = _child(argv, time.monotonic() + DEADLINE_S)
    print(line)
    return 0 if json.loads(line)["ok"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "setsyl", "cli.py")):
        print("perfbench: src/setsyl not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        if args.self_test:
            return self_test(args)
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload == "all":
            result = {}
            for name in WORKLOADS:
                args.workload = name
                result[name] = bench(args)
                print(f"{name} attempted = {result[name]['attempted']}, "
                      f"failed = {result[name]['failed']}")
        else:
            result = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
