"""Command-line front end: parse, sim, solve, csat, bench."""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as bench_mod
from .circuit import parse_aiger
from .cnf import parse_dimacs
from .drat import DratFileSink
from .heuristics import (AdaptiveUnsatPolicy, ClauseFilterPolicy,
                         PhaseSelectionPolicy, PolicyError)
from .sim import SimulationPlan, sample_patterns, simulate, write_traces
from .solver import Solver, SolverConfig, Status


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cmd_parse(args):
    circuit = parse_aiger(_read(args.file))
    if args.stats:
        print(json.dumps(circuit.stats(), indent=1))
    else:
        print(json.dumps({"gates": len(circuit)}))


def _parse_workload(spec: str):
    if spec.startswith("uniform:"):
        return float(spec.split(":", 1)[1])
    return [float(x) for x in spec.split(",")]


def cmd_sim(args):
    circuit = parse_aiger(_read(args.file))
    workload = _parse_workload(args.workload)
    plan = SimulationPlan(args.patterns, workload, args.seed)
    traces = simulate(circuit, sample_patterns(plan, len(circuit.primary_inputs)))
    if args.out:
        write_traces(traces, args.out)
    probs = {g: traces.count(g) / traces.num_patterns
             for g in range(len(circuit))}
    print(json.dumps({"num_patterns": traces.num_patterns,
                      "probabilities": probs}))


def _print_outcome(outcome) -> int:
    """Print the answer; return the exit code: 10 SAT, 20 UNSAT, else 0."""
    print(f"s {outcome.status.value}")
    if outcome.model is not None:
        lits = [v if val else -v for v, val in sorted(outcome.model.items())]
        print("v " + " ".join(str(l) for l in lits) + " 0")
    print(json.dumps(outcome.stats.as_dict()))
    return {Status.SAT: 10, Status.UNSAT: 20}.get(outcome.status, 0)


def cmd_solve(args):
    cnf = parse_dimacs(_read(args.file))
    sink = DratFileSink(args.drat) if args.drat else None
    solver = Solver(cnf, SolverConfig(), drat_sink=sink)
    outcome = solver.solve(conflict_budget=args.conflicts, time_budget=args.time)
    if sink:
        sink.close()
    return _print_outcome(outcome)


def _refresh(text: str) -> tuple[int, int]:
    """``csat --refresh K:C``; the phase policy checks the ranges."""
    k, _, c = text.partition(":")
    try:
        return int(k), int(c)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected K:C, two integers, not {text!r}") from None


def cmd_csat(args):
    # every policy is built, and so every flag checked, whatever the mode
    PhaseSelectionPolicy(args.tau, {}, *(args.refresh or ()))
    clause_filter = ClauseFilterPolicy(conflict_budget=args.budget,
                                       threshold=args.threshold,
                                       mode=args.score_mode)
    adaptive = AdaptiveUnsatPolicy(probe_budget_seconds=args.probe)
    outcome, fields = bench_mod.solve_miter(
        parse_aiger(_read(args.file)), args.mode, args.tau, args.refresh,
        clause_filter, adaptive)
    code = _print_outcome(outcome)
    # the mode's own fields: the filter report, or the adaptive stage and
    # the phase policy's fallbacks
    extra = {k: v for k, v in fields.items() if not k.endswith("_seconds")}
    if extra:
        print(json.dumps(extra.get("clause_filter", extra)))
    return code


def _modes(text: str) -> list[str]:
    """Comma-separated MODES for ``bench run --configs``."""
    labels = text.split(",") if text else []
    unknown = [label for label in labels if label not in bench_mod.MODES]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown mode {', '.join(unknown)}; "
                                         f"modes are {', '.join(bench_mod.MODES)}")
    return labels


def _read_records(path: str) -> list[dict]:
    """The JSON lines that ``bench run`` appended to ``path``."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def cmd_bench(args):
    if args.bench_cmd == "gen":
        bases = [parse_aiger(_read(p)) for p in args.bases]
        cases = bench_mod.gen_suite(bases, args.n_sat, args.n_unsat, args.seed)
        bench_mod.save_suite(cases, args.suite)
        print(json.dumps({"cases": len(cases), "suite": args.suite}))
    elif args.bench_cmd == "run":
        cases = bench_mod.load_suite(args.suite)
        configs = [bench_mod.BenchConfig(mode, kind=mode)
                   for mode in dict.fromkeys(["baseline", *args.configs])]
        records = bench_mod.run_suite(cases, configs, args.cutoff,
                                      jobs=args.jobs, out_path=args.out)
        print(json.dumps({"records": len(records)}))
    elif args.bench_cmd == "score":
        records = _read_records(args.records)
        scores = bench_mod.par2_by_config(records, args.cutoff)
        print(json.dumps({label: s.average for label, s in scores.items()},
                         indent=1))
    else:  # report
        records = _read_records(args.records)
        csv_text, summary = bench_mod.report(records, args.cutoff)
        with open(args.out + ".csv", "w") as fh:
            fh.write(csv_text)
        with open(args.out + ".json", "w") as fh:
            json.dump(summary, fh, indent=1)
        print(json.dumps({"csv": args.out + ".csv", "json": args.out + ".json"}))


def main(argv=None):
    ap = argparse.ArgumentParser(prog="cascad")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse an AIGER file and print stats")
    p.add_argument("file")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("sim", help="bit-parallel random simulation")
    p.add_argument("file")
    p.add_argument("--patterns", type=int, default=20000)
    p.add_argument("--workload", default="uniform:0.5",
                   help="'uniform:RHO' or comma-separated per-PI values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write CTRC trace file here")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("solve", help="solve a DIMACS CNF")
    p.add_argument("file")
    p.add_argument("--drat")
    p.add_argument("--conflicts", type=int)
    p.add_argument("--time", type=float)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("csat", help="solve an AIG with probability-guided heuristics")
    p.add_argument("file")
    p.add_argument("--mode", choices=bench_mod.MODES, required=True)
    p.add_argument("--tau", type=float, default=0.005)
    p.add_argument("--refresh", type=_refresh,
                   help="phase mode: refresh every K restarts on at most C "
                   "conditions, given as K:C")
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--budget", type=int, default=50000)
    p.add_argument("--score-mode", choices=["correlated", "independent"],
                   default="correlated")
    p.add_argument("--probe", type=float, default=5.0)
    p.set_defaults(func=cmd_csat)

    p = sub.add_parser("bench", help="benchmark suites")
    bsub = p.add_subparsers(dest="bench_cmd", required=True)
    g = bsub.add_parser("gen")
    g.add_argument("bases", nargs="+")
    g.add_argument("--suite", required=True)
    g.add_argument("--n-sat", type=int, default=50)
    g.add_argument("--n-unsat", type=int, default=50)
    g.add_argument("--seed", type=int, default=0)
    r = bsub.add_parser("run")
    r.add_argument("--suite", required=True)
    r.add_argument("--configs", type=_modes, default="phase",
                   help="comma-separated modes run besides baseline")
    r.add_argument("--cutoff", type=float, default=300.0)
    r.add_argument("--jobs", type=int, default=1)
    r.add_argument("--out", required=True)
    s = bsub.add_parser("score")
    s.add_argument("--records", required=True)
    s.add_argument("--cutoff", type=float, default=300.0)
    rep = bsub.add_parser("report")
    rep.add_argument("--records", required=True)
    rep.add_argument("--cutoff", type=float, default=300.0)
    rep.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    args = ap.parse_args(argv)
    try:
        rc = args.func(args)
    except PolicyError as e:  # a flag value outside its policy's range
        sub.choices[args.cmd].error(str(e))
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
