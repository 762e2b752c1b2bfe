"""Self-test of the benchmark's inputs and checks.

    python3 perfbench/run.py --self-test [--seed N]

Shows, for two rounds of every workload's inputs, that each planted model
satisfies its own literals under the benchmark's evaluator, that each
constructed contradiction has no model in the program's oracle at rank 2,
and that every check rejects a flipped verdict.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from setsyl.convexity import EqualitySet, Falsifiable, Implied  # noqa: E402
from setsyl.formulas import Eq, Var, and_  # noqa: E402
from setsyl.oracle import oracle_implies, oracle_sat  # noqa: E402
from setsyl.sexpr import parse_script  # noqa: E402
from setsyl.solver import Unsat  # noqa: E402

import workloads as W  # noqa: E402
from model import holds, holds_normalized, script_text  # noqa: E402
from worker import RUN, Api, build  # noqa: E402

RANK = 2


def _formula(literals):
    return and_(*parse_script(script_text(literals)).asserts)


def _no_model(literals) -> bool:
    return not oracle_sat(_formula(literals), RANK).is_sat


def _rejects(check, op, out) -> bool:
    try:
        check(op, out)
    except W.CheckFailed:
        return True
    return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    bad: list = []
    tally: dict = {}

    def expect(ok: bool, what: str) -> None:
        tally[what] = tally.get(what, 0) + 1
        if not ok:
            bad.append(what)

    api = Api(None)
    for op in build("mls-scripts", args.seed, 2):
        for item in op["items"]:
            if item["sat"]:
                expect(all(holds(f, item["plant"]) for f in item["asserts"]), "scripts: plant")
            else:
                base = [f for f in item["asserts"] if f not in item["contradiction"]]
                expect(all(holds(f, item["plant"]) for f in base), "scripts: plant of base")
                expect(_no_model(item["contradiction"]), "scripts: contradiction")
        run, check = RUN["mls-scripts"]
        out = run(op, api)
        expect(_rejects(check, op, [None if r is not None else object() for r in out]),
               "scripts: flipped verdict rejected")

    run, check = RUN["mls-search"]
    for op in build("mls-search", args.seed, 2):
        if op["sat"]:
            expect(holds_normalized(op["mems"], op["diffs"], op["plant"]), "search: plant")
        else:
            ring = [("in", x, y) for x, y in op["mems"] if x in op["ring"] and y in op["ring"]]
            expect(_no_model(ring), "search: cycle")
        expect(_rejects(check, op, _Flipped(run(op, api))), "search: flipped verdict rejected")

    run, check = RUN["combine"]
    for op in build("combine", args.seed, 2):
        if op["sat"]:
            plant, lits = op["plant"], op["lits"]
            for theory in ("mls", "lra", "list"):
                expect(all(holds(f, plant[theory]) for f in lits[theory]), f"combine: {theory} plant")
            shared = [v for v in plant["mls"] if v in plant["lra"] and v in plant["list"]]
            expect(all(len({plant[t][u] == plant[t][w] for t in plant}) == 1
                       for u in shared for w in shared), "combine: arrangement")
        else:
            xs = op["chain"]
            subsets = [f for f in op["literals"] if f[0] == "subset"]
            implied = oracle_implies(_formula(subsets), Eq(Var(xs[0]), Var(xs[-1])), RANK)
            expect(implied.implied, "combine: chain forces x0 = x(n-1)")
        out = run(op, api)
        expect(_rejects(check, op, _Flipped(out)), "combine: flipped verdict rejected")

    run, check = RUN["convexity"]
    for op in build("convexity", args.seed, 2):
        whole, singles, model, eqs = run(op, api)
        if any(isinstance(c, Falsifiable) for c in eqs.classification):
            # Calling every pair implied must clash with the separating model.
            lied = EqualitySet(eqs.equalities, tuple(Implied() for _ in eqs.equalities), 0)
            expect(_rejects(check, op, (whole, singles, model, lied)),
                   "convexity: all-implied classification rejected")
        if op["separated"] is not None:
            expect(_rejects(check, op, (whole, singles, Unsat(), eqs)),
                   "convexity: unsat rejected where a model is known")

    print(json.dumps({"ok": not bad, "failed": bad, "checked": tally}))
    return 0


class _Flipped:
    """A result with its verdict reversed; the checks stop at the verdict."""

    def __init__(self, res):
        self.is_sat = not res.is_sat


if __name__ == "__main__":
    sys.exit(main())
