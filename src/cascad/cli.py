"""Command-line front end: parse, sim, solve, csat, bench."""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bench as bench_mod
from .circuit import CircuitError, parse_aiger
from .cnf import CnfError, parse_dimacs
from .drat import DratFileSink
from .heuristics import (AdaptiveUnsatPolicy, ClauseFilterPolicy,
                         PhaseSelectionPolicy, PolicyError)
from .sim import SimError, SimulationPlan, sample_patterns, simulate
from .solver import Solver, SolverConfig, Status


class BadInput(Exception):
    """A malformed input file; ``main`` prints it, like an ``OSError``, as
    one line, exit 2."""


def _load(parse, path: str):
    """``parse`` (``parse_aiger`` or ``parse_dimacs``) of the file's bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except (CircuitError, CnfError) as e:
        raise BadInput(f"{path}: {e}") from None


def cmd_parse(args):
    circuit = _load(parse_aiger, args.file)
    if args.stats:
        print(json.dumps(circuit.stats(), indent=1))
    else:
        print(json.dumps({"gates": len(circuit)}))


def _workload(text: str) -> float | list[float]:
    """``sim --workload``: 'uniform:RHO' or comma-separated per-PI rates;
    the simulation plan checks the ranges and the count."""
    try:
        if text.startswith("uniform:"):
            return float(text.split(":", 1)[1])
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'uniform:RHO' or comma-separated rates, not {text!r}"
        ) from None


def cmd_sim(args):
    circuit = _load(parse_aiger, args.file)
    plan = SimulationPlan(args.patterns, args.workload, args.seed)
    traces = simulate(circuit, sample_patterns(plan, len(circuit.primary_inputs)))
    probs = dict(enumerate((traces.counts() / traces.num_patterns).tolist()))
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
    cnf = _load(parse_dimacs, args.file)
    sink = DratFileSink(args.drat) if args.drat else None
    try:
        solver = Solver(cnf, SolverConfig(), drat_sink=sink)
        outcome = solver.solve(conflict_budget=args.conflicts,
                               time_budget=args.time)
    finally:
        if sink:
            sink.close()
    return _print_outcome(outcome)


def _positive(kind, zero_ok=False):
    """An argparse type: a ``kind`` number greater than zero, or with
    ``zero_ok`` zero or more."""
    def parse(text: str):
        value = kind(text)  # a ValueError is argparse's "invalid value"
        if zero_ok and value == 0:
            return value
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"must be {'>= 0' if zero_ok else 'positive'}, not {text}")
        return value
    parse.__name__ = kind.__name__
    return parse


def cmd_csat(args):
    # every policy is built, and so every flag checked, whatever the mode
    PhaseSelectionPolicy(args.tau, {})
    clause_filter = ClauseFilterPolicy(conflict_budget=args.budget,
                                       threshold=args.threshold,
                                       mode=args.score_mode)
    adaptive = AdaptiveUnsatPolicy(probe_budget_seconds=args.probe)
    miter = _load(parse_aiger, args.file)
    if not miter.primary_outputs:
        print(f"cascad csat: {args.file} has no outputs to assert",
              file=sys.stderr)
        return 2
    outcome, fields = bench_mod.solve_miter(
        miter, args.mode, args.tau, clause_filter, adaptive)
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
    """The JSON lines that ``bench run`` appended to ``path``; each must be
    an object with the fields that scoring reads."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise BadInput(f"{path}: line {number}: {e}") from None
            if not (isinstance(record, dict)
                    and all(isinstance(record.get(k), str)
                            for k in ("case", "config", "status"))
                    and "wall_seconds" in record
                    # seconds are finite and >= 0; a bool is not a number
                    and all(type(record[k]) in (int, float)
                            and 0 <= record[k] < math.inf for k in
                            ("wall_seconds", "solving_seconds",
                             "inference_seconds") if k in record)):
                raise BadInput(f"{path}: line {number}: not a record with "
                               "case, config, status and wall_seconds, "
                               "each seconds field finite and >= 0")
            records.append(record)
    return records


def _scored(score, args):
    """``score`` of the records file; a file that is not UTF-8, or that
    records one (case, config) twice, is bad input."""
    try:
        return score(_read_records(args.records), args.cutoff)
    except ValueError as e:
        raise BadInput(f"{args.records}: {e}") from None


def cmd_bench(args):
    if args.bench_cmd == "gen":
        bases = [_load(parse_aiger, p) for p in args.bases]
        for path, base in zip(args.bases, bases):
            if not base.primary_outputs:
                raise BadInput(f"{path} has no outputs to compare")
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
        scores = _scored(bench_mod.par2_by_config, args)
        print(json.dumps({label: s.average for label, s in scores.items()},
                         indent=1))
    else:  # report
        csv_text, summary = _scored(bench_mod.report, args)
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
    p.add_argument("--workload", type=_workload, default="uniform:0.5",
                   help="'uniform:RHO' or comma-separated per-PI values")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("solve", help="solve a DIMACS CNF")
    p.add_argument("file")
    p.add_argument("--drat")
    p.add_argument("--conflicts", type=_positive(int))
    p.add_argument("--time", type=_positive(float))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("csat", help="solve an AIG with probability-guided heuristics")
    p.add_argument("file")
    p.add_argument("--mode", choices=bench_mod.MODES, required=True)
    p.add_argument("--tau", type=float, default=0.005)
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
    g.add_argument("--n-sat", type=_positive(int, zero_ok=True), default=50)
    g.add_argument("--n-unsat", type=_positive(int, zero_ok=True), default=50)
    g.add_argument("--seed", type=int, default=0)
    r = bsub.add_parser("run")
    r.add_argument("--suite", required=True)
    r.add_argument("--configs", type=_modes, default="phase",
                   help="comma-separated modes run besides baseline")
    r.add_argument("--cutoff", type=_positive(float), default=300.0)
    r.add_argument("--jobs", type=_positive(int), default=1)
    r.add_argument("--out", required=True)
    s = bsub.add_parser("score")
    s.add_argument("--records", required=True)
    s.add_argument("--cutoff", type=_positive(float), default=300.0)
    rep = bsub.add_parser("report")
    rep.add_argument("--records", required=True)
    rep.add_argument("--cutoff", type=_positive(float), default=300.0)
    rep.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    args = ap.parse_args(argv)
    try:
        rc = args.func(args)
    except (PolicyError, SimError) as e:
        # a flag value outside the range of its policy or simulation plan
        sub.choices[args.cmd].error(str(e))
    except (BadInput, bench_mod.SuiteError, OSError) as e:
        # a malformed input file or suite, or a path that cannot be opened
        print(f"cascad {args.cmd}: {e}", file=sys.stderr)
        return 2
    return rc or 0


if __name__ == "__main__":
    sys.exit(main())
