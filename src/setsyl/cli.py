"""Command-line entry point for batch solving, fuzzing, and demos.

Verdicts and reports go to stdout, diagnostics to stderr.  Exit codes:
0 a verdict or report was produced (also when the reader of stdout closes
it early); 2 parse or usage error; 3 a resource limit was hit; 4 an
internal invariant was violated or any other exception escaped, reported
as one line.  Every command is deterministic given its input file, flags,
and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .combine import THEORIES, solve_combined
from .convexity import (
    all_checks_pass,
    check_trace_invariants,
    convexity_fuzz,
    enlarge,
    pad_vars,
    write_reproducers,
)
from .errors import (
    ArityError,
    BoundTooLargeError,
    InvariantViolation,
    MixedAtomError,
    NonConvexPluginError,
    NonlinearTermError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    SearchSpaceTooLargeError,
    UnboundVariableError,
    UnsupportedAtomError,
)
from .formulas import (
    EMPTY,
    LIST,
    LRA,
    MLS_EXT,
    And,
    Eq,
    ExtOp,
    Formula,
    Not,
    Or,
    SetOp,
    Var,
    and_,
    classify_atom,
    conjuncts,
    free_vars,
    is_atom,
    is_literal,
    literal_atom,
    or_,
)
from .hf import SetAssignment, braces, hf, parse_braces
from .normalize import dnf_split, normalize
from .oracle import bounded_models, nonconvexity_schema, oracle_implies, oracle_sat
from .sexpr import parse_script, print_formula
from .solver import DEFAULT_SOLVE_BUDGET, solve

MAX_RANK = 4

_EQ_FLAG = re.compile(r"([A-Za-z_'][A-Za-z0-9_']*)=([A-Za-z_'][A-Za-z0-9_']*)\Z")


class UsageError(ValueError):
    pass


def _read_script(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_script(fh.read())


def _check_rank(rank: int) -> int:
    if rank < 1 or rank > MAX_RANK:
        raise BoundTooLargeError(f"rank bound must be between 1 and {MAX_RANK}, got {rank}")
    return rank


def _check_budget(budget: Optional[int]) -> Optional[int]:
    if budget is not None and budget <= 0:
        raise UsageError("budget must be positive")
    return budget


def _atom_tags(f: Formula) -> set:
    tags = set()

    def walk(g: Formula) -> None:
        if is_atom(g):
            tags.add(classify_atom(g))
        elif isinstance(g, Not):
            walk(g.body)
        elif isinstance(g, (And, Or)):
            for p in g.parts:
                walk(p)
        else:
            raise UsageError(f"not a formula: {g!r}")

    walk(f)
    return tags


def _emit(doc: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _model_strings(m: SetAssignment) -> Dict[str, str]:
    return m.to_strings()


# solve ------------------------------------------------------------------


def _fragment_json(frags) -> dict:
    out = {}
    for theory, frag in frags.items():
        out[theory] = {k: str(v) for k, v in sorted(frag.items())}
    return out


def cmd_solve(args) -> int:
    script = _read_script(args.file)
    budget = _check_budget(args.budget)
    asserts = list(script.asserts)
    f = and_(*asserts) if asserts else Eq(EMPTY, EMPTY)
    tags = _atom_tags(f)
    if MLS_EXT in tags:
        raise UnsupportedAtomError(
            "extension operators are outside the decision procedure; "
            "use the oracle command"
        )
    plugins = None
    if args.plugins is not None:
        plugins = tuple(p.strip() for p in args.plugins.split(",") if p.strip())
        for p in plugins:
            if p not in THEORIES:
                raise UsageError(f"unknown plugin {p!r} (choose from {', '.join(THEORIES)})")
        if not plugins:
            raise UsageError("empty plugin list")
    combined = plugins is not None or bool(tags & {LRA, LIST})

    if combined:
        res = solve_combined(asserts, plugins or THEORIES, budget=budget)
        doc = {
            "command": "solve",
            "engine": "combined",
            "verdict": "sat" if res.is_sat else "unsat",
            "propagated": [list(p) for p in res.propagated],
            "rounds": res.rounds,
            "fragments": _fragment_json(res.fragments) if res.is_sat else None,
            "culprit": None if res.is_sat else res.culprit,
        }
        lines = [doc["verdict"]]
        for a, b in res.propagated:
            lines.append(f"propagated: {a} = {b}")
        if res.is_sat:
            for theory in sorted(res.fragments):
                for k, v in sorted(res.fragments[theory].items()):
                    lines.append(f"{theory}: {k} = {v}")
        else:
            lines.append(f"culprit: {res.culprit}")
        _emit(doc, args.json, lines)
        return 0

    sat_res = None
    sat_branch = None
    for branch in dnf_split(f):
        nc = normalize(branch)
        res = solve(nc, budget=budget)
        if res.is_sat:
            sat_res, sat_branch = res, branch
            break
    if sat_res is None:
        _emit(
            {"command": "solve", "engine": "mls", "verdict": "unsat",
             "model": None, "witness": None},
            args.json,
            ["unsat"],
        )
        return 0

    shown = [v for v in free_vars(f) if v in sat_res.model]
    model = sat_res.model.restrict(shown)
    doc = {
        "command": "solve",
        "engine": "mls",
        "verdict": "sat",
        "model": _model_strings(model),
        "witness": None,
    }
    lines = ["sat"]
    for k, v in sorted(_model_strings(model).items()):
        lines.append(f"{k} = {v}")
    if args.witness:
        w = sat_res.witness
        doc["witness"] = {
            "vars": list(w.vars),
            "merge": [list(g) for g in w.merge],
            "sigma": [[name, sorted(place.trues)] for name, place in w.sigma],
            "junk": [[sorted(place.trues), copies] for place, copies in w.junk],
            "topo": list(w.topo),
            "full_model": _model_strings(sat_res.model),
        }
        lines.append(f"witness: topo = {', '.join(w.topo) or '(none)'}")
        for name, place in w.sigma:
            lines.append(f"witness: {name} sits at place {{{', '.join(sorted(place.trues))}}}")
    _emit(doc, args.json, lines)
    return 0


# normalize ----------------------------------------------------------------


def cmd_normalize(args) -> int:
    script = _read_script(args.file)
    asserts = list(script.asserts)
    f = and_(*asserts) if asserts else Eq(EMPTY, EMPTY)
    ncs = [normalize(branch) for branch in dnf_split(f)]
    doc = {
        "command": "normalize",
        "disjuncts": [
            {
                "vars": list(nc.vars),
                "memberships": [list(m) for m in nc.memberships],
                "differences": [list(d) for d in nc.differences],
            }
            for nc in ncs
        ],
    }
    lines: List[str] = []
    for i, nc in enumerate(ncs):
        if len(ncs) > 1:
            lines.append(f"; disjunct {i}")
        for lit in nc.literals():
            lines.append(f"(assert {print_formula(lit)})")
    _emit(doc, args.json, lines)
    return 0


# oracle -------------------------------------------------------------------


def cmd_oracle(args) -> int:
    script = _read_script(args.file)
    rank = _check_rank(args.rank)
    asserts = list(script.asserts)
    f = and_(*asserts) if asserts else Eq(EMPTY, EMPTY)
    res = oracle_sat(f, rank)
    if res.is_sat:
        doc = {
            "command": "oracle",
            "rank_bound": rank,
            "verdict": "sat",
            "model": _model_strings(res.model),
        }
        lines = [f"sat within rank {rank}"]
        for k, v in sorted(_model_strings(res.model).items()):
            lines.append(f"{k} = {v}")
    else:
        doc = {"command": "oracle", "rank_bound": rank, "verdict": "unsat", "model": None}
        lines = [f"no model within rank {rank}"]
    _emit(doc, args.json, lines)
    return 0


# witness ------------------------------------------------------------------


def _split_entries(text: str) -> List[str]:
    """Split on commas outside braces: x={},y={{},{{}}} has two entries."""
    parts: List[str] = []
    depth = 0
    cur: List[str] = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_assignment(text: str) -> SetAssignment:
    out = {}
    for part in _split_entries(text.strip().strip('"')):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"expected name=braces in assignment option, got {part!r}")
        name, _, value = part.partition("=")
        out[name.strip()] = parse_braces(value)
    return SetAssignment(out)


def _first_model(f: Formula, names: Sequence[str], rank: int) -> Optional[SetAssignment]:
    for m in bounded_models(f, rank, max_assignments=None, node_budget=10**8):
        return m.restrict([v for v in names if v in m])
    return None


def cmd_witness(args) -> int:
    script = _read_script(args.file)
    rank = _check_rank(args.rank)
    m = _EQ_FLAG.fullmatch(args.eq or "")
    if m is None:
        raise UsageError("--eq expects the form name=name")
    x, y = m.group(1), m.group(2)
    lits = conjuncts(and_(*script.asserts)) if script.asserts else []
    for lit in lits:
        if not is_literal(lit):
            raise UsageError("witness expects a conjunction of literals")
    nc = pad_vars(normalize(lits), [(x, y)])

    opts = script.option_map()
    if "base" in opts:
        base = _parse_assignment(opts["base"])
    else:
        base = _first_model(and_(nc.to_formula(), Eq(Var(x), Var(y))), nc.vars, rank)
        if base is None:
            raise UsageError(f"no model with {x} = {y} within rank {rank}")
    if "separating" in opts:
        separating = _parse_assignment(opts["separating"])
    else:
        separating = _first_model(
            and_(nc.to_formula(), Not(Eq(Var(x), Var(y)))), nc.vars, rank
        )
        if separating is None:
            raise UsageError(f"no model with {x} != {y} within rank {rank}")

    enlarged, trace = enlarge(nc, base, separating, x, y)
    checks = check_trace_invariants(trace, base, nc)

    doc = {
        "command": "witness",
        "pair": [x, y],
        "direction": trace.direction,
        "fresh_element": braces(trace.fresh_element),
        "separator": braces(trace.separator),
        "stabilized_at": trace.stabilized_at,
        "waves": [sorted(w) for w in trace.waves],
        "stages": [stage.to_strings() for stage in trace.stages],
        "result": enlarged.to_strings(),
        "checks": [
            {"name": c.name, "index": c.index, "ok": c.ok, "detail": c.detail}
            for c in checks
        ],
        "all_pass": all_checks_pass(checks),
    }
    lines = [
        f"designated pair: {x} = {y}",
        f"direction: {trace.direction}",
        f"fresh element: {braces(trace.fresh_element)}",
        f"separator: {braces(trace.separator)}",
    ]
    for n, wave in enumerate(trace.waves):
        inner = ", ".join(sorted(wave))
        lines.append(f"V_{n} = {{{inner}}}")
    for n, stage in enumerate(trace.stages):
        for k, v in sorted(stage.to_strings().items()):
            lines.append(f"M_{n} {k} = {v}")
    lines.append(f"stabilized at stage {trace.stabilized_at}")
    passed = sum(1 for c in checks if c.ok)
    lines.append(f"invariant checks: {passed}/{len(checks)} pass")
    for c in checks:
        if not c.ok:
            where = "" if c.index is None else f" [stage {c.index}]"
            lines.append(f"FAIL {c.name}{where}: {c.detail}")

    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(doc, args.json, lines)
    if not doc["all_pass"]:
        print("invariant checks failed", file=sys.stderr)
        return 4
    return 0


# fuzz-convexity -------------------------------------------------------------


def cmd_fuzz(args) -> int:
    rank = _check_rank(args.rank)
    report = convexity_fuzz(args.vars, args.lits, args.iters, args.seed, rank)
    doc = {
        "command": "fuzz-convexity",
        "vars": report.vars,
        "lits": report.lits,
        "iters": report.iters,
        "seed": report.seed,
        "rank_bound": report.rank_bound,
        "checked": report.checked,
        "skipped": report.skipped,
        "implied_disjunctions": report.implied_disjunctions,
        "violations": [
            {
                "iteration": v.iteration,
                "memberships": [list(m) for m in v.memberships],
                "differences": [list(d) for d in v.differences],
                "pairs": [list(p) for p in v.pairs],
                "script": v.script,
            }
            for v in report.violations
        ],
    }
    lines = [
        f"iterations: {report.iters} (checked {report.checked}, skipped {report.skipped})",
        f"implied disjunctions: {report.implied_disjunctions}",
        f"violations: {len(report.violations)}",
    ]
    if report.violations and args.trace:
        for path in write_reproducers(report, args.trace):
            lines.append(f"reproducer: {path}")
    _emit(doc, args.json, lines)
    return 0


# nonconvex-demo -------------------------------------------------------------


def _demo_fixture(theory: str):
    """The minimal non-convex instance for each extension operator."""
    v = {n: Var(n) for n in ("x", "y", "xp", "yp", "xbar", "e")}
    single = lambda t: ExtOp("single", (t,))
    if theory == "mlss":
        phi = and_(
            Eq(v["x"], single(v["y"])),
            Eq(v["xp"], single(v["yp"])),
            Eq(v["xbar"], SetOp("union", v["x"], v["xp"])),
        )
        return ("probe", phi, "xbar", 2)
    if theory == "mlsp":
        phi = and_(
            Eq(v["x"], EMPTY),
            Eq(v["y"], ExtOp("pow", (v["x"],))),
            Eq(v["xbar"], ExtOp("pow", (v["y"],))),
        )
        return ("probe", phi, "xbar", 2)
    if theory == "mlsu":
        phi = and_(
            Eq(v["x"], EMPTY),
            Eq(ExtOp("bigU", (v["y"],)), v["x"]),
            Eq(ExtOp("bigU", (v["xbar"],)), v["y"]),
        )
        return ("probe", phi, "xbar", 2)
    op = "cross" if theory == "mlsx" else "ucross"
    phi = and_(
        Eq(v["e"], ExtOp(op, (v["x"], v["y"]))),
        Eq(v["e"], SetOp("setminus", v["e"], v["e"])),
    )
    return ("product", phi, None, None)


def cmd_nonconvex(args) -> int:
    rank = _check_rank(args.rank)
    kind, phi, xbar, k = _demo_fixture(args.theory)
    cases: List[dict] = []

    if kind == "probe":
        big, pairs = nonconvexity_schema(phi, xbar, k)
        disj = or_(*[Eq(Var(a), Var(b)) for a, b in pairs])
        imp = oracle_implies(big, disj, rank, max_assignments=None, node_budget=10**8)
        implied = imp.implied
        for a, b in pairs:
            r = oracle_implies(big, Eq(Var(a), Var(b)), rank, max_assignments=None,
                               node_budget=10**8)
            cases.append(
                {
                    "label": f"{a} = {b}",
                    "refuted": not r.implied,
                    "countermodel": None if r.implied else r.model.to_strings(),
                }
            )
        noun = "equality"
    else:
        disjuncts = [Eq(Var("x"), EMPTY), Eq(Var("y"), EMPTY)]
        disj = or_(*disjuncts)
        imp = oracle_implies(phi, disj, rank, max_assignments=None, node_budget=10**8)
        implied = imp.implied
        for d in disjuncts:
            r = oracle_implies(phi, d, rank, max_assignments=None, node_budget=10**8)
            cases.append(
                {
                    "label": print_formula(d),
                    "refuted": not r.implied,
                    "countermodel": None if r.implied else r.model.to_strings(),
                }
            )
        noun = "disjunct"

    pinned = None
    if args.theory == "mlsp":
        want = hf([hf(), hf([hf()])])
        seen = 0
        pinned = True
        for m in bounded_models(phi, rank):
            seen += 1
            if m["xbar"] is not want:
                pinned = False
                break
        pinned = pinned and seen > 0

    refuted = sum(1 for c in cases if c["refuted"])
    passed = implied and refuted == len(cases) and (pinned is not False)
    doc = {
        "command": "nonconvex-demo",
        "theory": args.theory,
        "k": k,
        "rank_bound": rank,
        "disjunction_implied": implied,
        "cases": cases,
        "pinned_padding": pinned,
        "passed": passed,
    }
    yn = lambda b: "yes" if b else "no"
    lines = [
        f"disjunction implied within bound: {yn(implied)}; "
        f"each single {noun} refutable: {yn(refuted == len(cases))} "
        f"({refuted}/{len(cases)})"
    ]
    for c in cases:
        status = "pass" if c["refuted"] else "FAIL"
        extra = ""
        if c["countermodel"]:
            inner = ", ".join(f"{k2}={v2}" for k2, v2 in sorted(c["countermodel"].items()))
            extra = f" (countermodel {inner})"
        lines.append(f"refute {c['label']}: {status}{extra}")
    if pinned is not None:
        lines.append(f"padded variable pinned to {{{{}},{{{{}}}}}}: {yn(pinned)}")
    lines.append("demo: " + ("pass" if passed else "FAIL"))
    _emit(doc, args.json, lines)
    return 0


# parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="setsyl",
        description="Decision procedures for multi-level syllogistic set theory.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_rank(sp):
        sp.add_argument("--rank", type=int, default=3,
                        help="universe rank bound (default 3, max 4)")

    def add_json(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("solve", help="decide a conjunction (set or mixed theories)")
    sp.add_argument("file", help="s-expression script (.syl)")
    sp.add_argument("--budget", type=int, default=DEFAULT_SOLVE_BUDGET,
                    help="search-node budget for the set solver")
    sp.add_argument("--plugins", default=None,
                    help="comma-separated plugin order, e.g. mls,lra,list")
    sp.add_argument("--witness", action="store_true",
                    help="include the solver's placement witness")
    add_json(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("normalize", help="print the two-literal normal form")
    sp.add_argument("file")
    add_json(sp)
    sp.set_defaults(func=cmd_normalize)

    sp = sub.add_parser("oracle", help="exhaustive rank-bounded model search")
    sp.add_argument("file")
    add_rank(sp)
    add_json(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("witness", help="replay one model-enlargement step")
    sp.add_argument("file")
    sp.add_argument("--eq", required=True, metavar="X=Y",
                    help="designated satisfied equality to eliminate")
    sp.add_argument("--trace", default=None, metavar="PATH",
                    help="also write the full trace as JSON to PATH")
    add_rank(sp)
    add_json(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("fuzz-convexity", help="randomized convexity check")
    sp.add_argument("--vars", type=int, default=3)
    sp.add_argument("--lits", type=int, default=4)
    sp.add_argument("--iters", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trace", default=None, metavar="DIR",
                    help="directory for violation reproducer scripts")
    add_rank(sp)
    add_json(sp)
    sp.set_defaults(func=cmd_fuzz)

    sp = sub.add_parser("nonconvex-demo",
                        help="show an extension operator breaking convexity")
    sp.add_argument("--theory", required=True,
                    choices=("mlss", "mlsp", "mlsu", "mlsx", "mlsox"))
    add_rank(sp)
    add_json(sp)
    sp.set_defaults(func=cmd_nonconvex)

    return p


_USAGE_ERRORS = (
    UsageError,
    ParseError,
    ArityError,
    MixedAtomError,
    UnsupportedAtomError,
    UnboundVariableError,
    BoundTooLargeError,
    PreconditionError,
    NonConvexPluginError,
    NonlinearTermError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    UnicodeDecodeError,
    ValueError,
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (say, `| head`); what it read is
        # all it wanted.  Point stdout at devnull so the flush at shutdown
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ResourceLimitError, SearchSpaceTooLargeError) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except InvariantViolation as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 4
    except Exception as e:
        detail = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
