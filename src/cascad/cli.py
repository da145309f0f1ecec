"""Command-line front end: parse, augment, sim, solve, csat, bench."""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as bench_mod
from .augment import chain_conditions, insert_cond
from .circuit import parse_aiger
from .cnf import parse_dimacs, tseitin_encode
from .drat import DratFileSink
from .estimator import Estimator, EstimatorConfig, default_backend
from .heuristics import (AdaptiveUnsatPolicy, ClauseFilterPolicy,
                         build_phase_policy, adaptive_solve, make_phase_hook,
                         run_clause_filter, RefreshingPhaseHook)
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


def cmd_augment(args):
    circuit = parse_aiger(_read(args.file))
    conds = [int(x) for x in args.cond.split(",")]
    if len(conds) == 1:
        cond_gate = conds[0]
        aug = circuit.copy()
    else:
        aug = circuit.copy()
        cond_gate = chain_conditions(aug, [(c, True) for c in conds])
    aug, node = insert_cond(aug, args.target, cond_gate)
    print(json.dumps({"joint": node.numerator, "div": node.gate,
                      "condition": node.denominator}))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(aug.to_json())


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
             for g in range(len(circuit)) if traces.has_trace[g]}
    print(json.dumps({"num_patterns": traces.num_patterns,
                      "probabilities": probs}))


def _print_outcome(outcome):
    print(f"s {outcome.status.value}")
    if outcome.model is not None:
        lits = [v if val else -v for v, val in sorted(outcome.model.items())]
        print("v " + " ".join(str(l) for l in lits) + " 0")
    print(json.dumps(outcome.stats.as_dict()))


def cmd_solve(args):
    cnf = parse_dimacs(_read(args.file))
    sink = DratFileSink(args.drat) if args.drat else None
    solver = Solver(cnf, SolverConfig(), drat_sink=sink)
    outcome = solver.solve(conflict_budget=args.conflicts, time_budget=args.time)
    if sink:
        sink.close()
    _print_outcome(outcome)
    return 10 if outcome.status is Status.SAT else \
        20 if outcome.status is Status.UNSAT else 0


def cmd_csat(args):
    circuit = parse_aiger(_read(args.file))
    po = circuit.primary_outputs[0]
    cnf, vmap = tseitin_encode(circuit, [(po, True)])
    estimator = Estimator(circuit, EstimatorConfig(backend=default_backend(circuit)))

    if args.mode == "phase":
        refresh_k, max_conds = 0, 8
        if args.refresh:
            k, c = args.refresh.split(":")
            refresh_k, max_conds = int(k), int(c)
        policy = build_phase_policy(estimator, po, vmap, args.tau,
                                    refresh_k, max_conds)
        if refresh_k:
            hook = RefreshingPhaseHook(policy, estimator, po, vmap)
            solver = Solver(cnf, SolverConfig(), phase_hook=hook,
                            on_restart=hook.on_restart)
        else:
            solver = Solver(cnf, SolverConfig(), phase_hook=make_phase_hook(policy))
        outcome = solver.solve()
        _print_outcome(outcome)
    elif args.mode == "clause-filter":
        policy = ClauseFilterPolicy(conflict_budget=args.budget,
                                    threshold=args.threshold,
                                    mode=args.score_mode)
        solver = Solver(cnf, SolverConfig())
        rep = run_clause_filter(solver, policy, estimator, vmap)
        _print_outcome(rep.outcome)
        print(json.dumps({
            "fired_at_conflicts": rep.fired_at_conflicts,
            "fired_mid_solve": rep.fired_mid_solve,
            "total": rep.total, "kept": rep.kept, "dropped": rep.dropped,
            "kept_unscored": rep.kept_unscored,
            "score_histogram": rep.score_histogram,
            "lbd_buckets": rep.lbd_buckets,
        }))
    else:  # adaptive
        policy = AdaptiveUnsatPolicy(probe_budget_seconds=args.probe)
        phase = build_phase_policy(estimator, po, vmap, args.tau)
        result = adaptive_solve(cnf, policy, phase_hook=make_phase_hook(phase))
        _print_outcome(result.outcome)
        print(json.dumps({"stage": result.stage,
                          "stage1_wall": result.stage1_wall}))


def cmd_bench(args):
    if args.bench_cmd == "gen":
        bases = [parse_aiger(_read(p)) for p in args.bases]
        cases = bench_mod.gen_suite(bases, args.n_sat, args.n_unsat, args.seed)
        bench_mod.save_suite(cases, args.suite)
        print(json.dumps({"cases": len(cases), "suite": args.suite}))
    elif args.bench_cmd == "run":
        cases = bench_mod.load_suite(args.suite)
        configs = [bench_mod.BenchConfig("baseline")]
        for label in (args.configs.split(",") if args.configs else []):
            if label == "phase":
                configs.append(bench_mod.BenchConfig("phase", kind="phase"))
            elif label == "clause-filter":
                configs.append(bench_mod.BenchConfig("clause-filter",
                                                     kind="clause_filter"))
        records = bench_mod.run_suite(cases, configs, args.cutoff,
                                      jobs=args.jobs, out_path=args.out)
        print(json.dumps({"records": len(records)}))
    elif args.bench_cmd == "score":
        records = [json.loads(l) for l in open(args.records) if l.strip()]
        scores = bench_mod.par2_by_config(records, args.cutoff)
        print(json.dumps({label: s.average for label, s in scores.items()},
                         indent=1))
    else:  # report
        records = [json.loads(l) for l in open(args.records) if l.strip()]
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

    p = sub.add_parser("augment", help="insert joint/conditional virtual gates")
    p.add_argument("file")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--cond", required=True, help="condition gate id(s), comma-separated")
    p.add_argument("--out", help="write augmented JSON graph here")
    p.set_defaults(func=cmd_augment)

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
    p.add_argument("--mode", choices=["phase", "clause-filter", "adaptive"],
                   required=True)
    p.add_argument("--tau", type=float, default=0.005)
    p.add_argument("--refresh", help="K:C refresh every K restarts, max C conditions")
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
    r.add_argument("--configs", default="phase")
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
    rc = args.func(args)
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
