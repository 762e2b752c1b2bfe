"""One workload in one fresh process: import, build inputs, run, check.

Run from the repository root:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace]

S sizes the input list and may be a fraction.  The latencies it prints
are in operation order, null for an operation that raised.

It prints one JSON object on its last line for perfbench/run.py to read.
Before the timed loop the process only imports the program and builds
inputs, which makes no set values, so the process-wide intern table and
operation caches of `setsyl.hf` hold only what the import made.  The loop
is closed with one caller: each operation starts when the previous one
and its check have ended.  Each operation is timed in CPU time of this
process (`time.process_time`): the program is single-threaded and does
no I/O, so on an idle core that equals its wall time, and it leaves out
the time a shared host gives the core to someone else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as W  # noqa: E402
from calibrate import calibration  # noqa: E402
from spans import Tracer, TracedPlugin  # noqa: E402

# Rounds of each workload's slot list per second of --seconds.  The input
# list depends only on the seed and --seconds, never on the clock, so every
# run of one seed does the same work; these rates were set so that the
# passes of a run (perfbench/run.py) together last about its --seconds.
ROUNDS_PER_SECOND = {
    "mls-scripts": 7.0,
    "mls-search": 4.5,
    "combine": 1.0,
    "convexity": 7.5,
}
MIN_OPS = 100  # so that at least 10 latencies lie beyond p90
CALIBRATION_EVERY_S = 0.01  # operation CPU time between two samples

# Span name -> per-layer metric (self time, in ms).
LAYER_SPANS = {
    "sexpr.parse_script": "sexpr.parse_ms",
    "normalize.dnf_split": "normalize.split_ms",
    "normalize.normalize": "normalize.normalize_ms",
    "probe.places": "solver.places_ms",
    "probe.build_model": "solver.model_build_ms",
    "probe.satisfies": "solver.verify_ms",
    "oracle.oracle_implies": "oracle.implies_ms",
    "convexity.minimize_equalities": "convexity.minimize_ms",
    "combine.purify": "combine.purify_ms",
    "combine.mls.check": "combine.mls_check_ms",
    "combine.mls.implied": "combine.mls_implied_ms",
    "lra.check": "lra.check_ms",
    "lra.implied": "lra.implied_ms",
    "lra.fragment": "lra.sample_ms",
    "lists.check": "lists.check_ms",
    "lists.implied": "lists.implied_ms",
}
COUNTS = ("normalize.fresh_vars", "solver.places", "solver.junk_tags",
          "solver.model_rank_max", "oracle.calls", "convexity.enlargements")


class Api:
    """The program's public functions the workloads call, traced or not."""

    def __init__(self, tracer):
        # importlib, because the package re-exports a function named normalize
        combine, convexity, formulas, normalize, oracle, sexpr, solver = (
            importlib.import_module("setsyl." + m)
            for m in ("combine", "convexity", "formulas", "normalize", "oracle", "sexpr", "solver")
        )
        wrap = tracer.wrap if tracer else (lambda name, fn: fn)
        self.tracer = tracer
        self.pending: list = []  # traced solve calls: (span index, nc, result)
        self.and_, self.or_ = formulas.and_, formulas.or_
        self.Eq, self.Var = formulas.Eq, formulas.Var
        self.parse_script = wrap("sexpr.parse_script", sexpr.parse_script)
        self.dnf_split = wrap("normalize.dnf_split", normalize.dnf_split)
        self.normalize = wrap("normalize.normalize", normalize.normalize)
        self.oracle_implies = wrap("oracle.oracle_implies", oracle.oracle_implies)
        self.minimize_equalities = wrap("convexity.minimize_equalities", convexity.minimize_equalities)
        self._solve = wrap("solver.solve", solver.solve)
        self.solve_combined = combine.solve_combined
        if tracer:
            self._combine = combine
            self.solve_combined = self._traced_combined
            self._purify = wrap("combine.purify", combine.purify)
            self._propagate = wrap("combine.propagate", combine.propagate)
            self.probe_places = wrap("probe.places", solver.enumerate_places)
            self.probe_build = wrap("probe.build_model", solver.build_model)
            self.probe_verify = wrap("probe.satisfies", solver.satisfies)

    def solve(self, nc):
        res = self._solve(nc)
        if self.tracer:
            self.pending.append((len(self.tracer.spans) - 1, nc, res))
        return res

    def _traced_combined(self, asserts):
        # solve_combined with the default plugins, each wrapped in spans.
        c, t = self._combine, self.tracer
        branches = c.split_disjuncts(self.and_(*asserts)) if asserts else [[]]
        last = None
        for branch in branches:
            plugins = [TracedPlugin(t, "combine.mls", c.MlsTheory()),
                       TracedPlugin(t, "lra", c.LraTheory()),
                       TracedPlugin(t, "lists", c.ListTheory())]
            res = self._propagate(self._purify(branch), plugins)
            if res.is_sat:
                return res
            last = res
        return last


MAKE = {"mls-scripts": W.make_mls_scripts, "mls-search": W.make_mls_search,
        "combine": W.make_combine, "convexity": W.make_convexity}
RUN = {"mls-scripts": (W.run_mls_scripts, W.check_mls_scripts),
       "mls-search": (W.run_mls_search, W.check_mls_search),
       "combine": (W.run_combine, W.check_combine),
       "convexity": (W.run_convexity, W.check_convexity)}


def build(workload: str, seed: int, rounds: int):
    def rng_for(*where):
        return random.Random("/".join(map(str, (workload, seed) + where)))

    return MAKE[workload](rng_for, rounds)


def probe(api, counts: dict, op) -> None:
    """After a traced operation, re-time the solver's stages on its solves."""
    spans = api.tracer.spans
    names = {v for item in op.get("items", ()) for v in item["names"]}
    for span, nc, res in api.pending:
        first = len(spans)
        counts["solver.places"] += len(api.probe_places(nc))
        if names:
            counts["normalize.fresh_vars"] += sum(1 for v in nc.vars if v not in names)
        if res.is_sat:
            api.probe_verify(nc, api.probe_build(res.witness))
            counts["solver.junk_tags"] += len(res.witness.junk)
            top = max((v.rank for _, v in res.model.items()), default=0)
            counts["solver.model_rank_max"] = max(counts["solver.model_rank_max"], top)
        # search = solve minus the stages just re-timed
        restaged = sum(e - s for _, s, e, _, _ in spans[first:])
        counts["search_s"] += spans[span][2] - spans[span][1] - restaged
    api.pending.clear()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS_PER_SECOND))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-file")
    ap.add_argument("--inputs", help="pickle of the operation list: read if present, else built and written")
    args = ap.parse_args(argv)

    if args.inputs and os.path.exists(args.inputs):
        with open(args.inputs, "rb") as fh:
            ops = pickle.load(fh)
    else:
        rounds = max(1, round(args.seconds * ROUNDS_PER_SECOND[args.workload]))
        ops = build(args.workload, args.seed, rounds)
        if len(ops) < MIN_OPS:  # operations are proportional to rounds
            ops = build(args.workload, args.seed, -(-rounds * MIN_OPS // len(ops)))
        if args.inputs:
            with open(args.inputs, "wb") as fh:
                pickle.dump(ops, fh)
    run, check = RUN[args.workload]
    tracer = Tracer() if args.trace else None
    api = Api(tracer)
    timed = tracer.wrap("op", run) if tracer else run
    counts = dict.fromkeys(COUNTS, 0)
    counts["search_s"] = 0.0

    latencies, errors, wrong, families = [], {}, [], {}
    busy = 0.0  # summed operation CPU time
    # Calibration samples, one after every CALIBRATION_EVERY_S of operations.
    cal, since = [calibration() for _ in range(5)], 0.0
    for i, op in enumerate(ops):
        if tracer:
            tracer.op = i
        if since >= CALIBRATION_EVERY_S:
            cal.append(calibration())
            since = 0.0
        start = time.process_time()
        try:
            out = timed(op, api)
        except Exception as exc:  # a failed operation is counted, not fatal
            took = time.process_time() - start
            busy += took
            since += took
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
            api.pending.clear()
            latencies.append(None)
            continue
        took = time.process_time() - start
        busy += took
        since += took
        latencies.append(took)
        fam = families.setdefault(op["family"], [0, 0.0, 0.0])
        fam[0] += 1
        fam[1] += took
        fam[2] = max(fam[2], took)
        if tracer:
            probe(api, counts, op)
            if args.workload == "convexity":
                counts["oracle.calls"] += 1 + len(out[1])
                counts["convexity.enlargements"] += out[3].enlargements
        try:
            check(op, out)
        except Exception as exc:  # CheckFailed, or output too malformed to check
            wrong.append(f"op {i} ({op['family']}): {type(exc).__name__}: {exc}")

    result = {
        "attempted": len(ops),
        "failed": sum(errors.values()),
        "errors": errors,
        "wrong": wrong[:5],
        "latencies_s": latencies,
        "cpu_s": busy,
        "calibration_s": cal + [calibration() for _ in range(5)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "families": families,
    }
    if tracer:
        selfs = tracer.self_times()
        layers = {m: 1000 * selfs.get(s, 0.0) for s, m in LAYER_SPANS.items()}
        layers["solver.search_ms"] = 1000 * counts.pop("search_s")
        layers.update(counts)
        result["layers"] = layers
        if args.trace_file:
            tracer.write(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
