"""LEC benchmark for cascad: PAR-2 and time to verdict on generated miters.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload random-suite --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one run at a time, sized for two cores):

* ``random-suite``: ``bench.gen_suite`` miters over 32 random 16-input,
  800-gate bases (32 SAT mutations, 16 UNSAT transforms), each run under
  ``baseline`` and under ``phase`` through ``bench.run_suite(jobs=1)``, one
  run per call.  Cases need few conflicts, so most time goes to bench
  (process spawn and polling), sim, estimator, circuit and cnf; solver
  propagation over the large CNFs is the largest single layer (about a
  third).
* ``mult-unsat``: UNSAT n-bit array-multiplier miters (two with n = 5, sixty
  with n = 4), solved in-process with the baseline config.  Solver
  propagate and analyze dominate; n = 5 crosses the 2,000-conflict reduce
  interval.  ``phase`` is left out: PO=1 has no satisfying row, so its
  phase table is empty and the search is identical to baseline.
* ``mult-filter``: fourteen n = 4 multiplier miters through
  ``heuristics.run_clause_filter`` with a ``DratProof`` sink, a filter
  checkpoint every case passes mid-solve, and ``drat.check_proof`` on every
  proof.  The checker dominates.

Each workload has many cases of similar size, so that a run's figures do
not hang on a few cases the seed happens to draw.  The seed makes the inputs;
the program sees only the generated AIGER bytes.  Set-up (import plus
generation) runs several times and reports its median.  The timed loop
repeats whole rounds of the workload's (case, config) runs for about
``--seconds``; a run's time is the median of its repeats.  Every verdict is
checked against an independent exhaustive evaluator (``oracle.py``); a wrong
verdict aborts with exit code 1.

End-to-end times are in nominal-host seconds: each run's measured seconds
scaled by a calibration task timed twice a second around it (``calib.py``),
so that the host's speed drifting does not read as a change of the program.
The unscaled figures are in the record.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
untraced, then traced rounds, and prints the per-layer metrics: op times,
layer self times, the time no span covers, the tracing overhead and counts.
All per-layer figures are per round and unscaled.  Counts must repeat
exactly; they are compared between rounds and with the last run of the same
workload and seed (kept under ``.perfbench/``), and any mismatch is
reported.

Standard output ends with two JSON lines: a detailed record (machine, source
identity, percentiles, layer shares, count checks) and the summary the
benchmark contract asks for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

# cutoff: seconds after which a run scores 2 x cutoff (well above the slowest
# run); checkpoint: conflicts before the clause filter fires; min_rounds:
# timed repeats of every run however slow the host (a round of random-suite
# takes about half of a 30 s run, so it would flip between one and two).
WORKLOADS = {
    "random-suite": {"cutoff": 10.0, "bases": 32, "n_sat": 32, "n_unsat": 16,
                     "min_rounds": 2},
    "mult-unsat": {"cutoff": 60.0, "sizes": [5, 5] + [4] * 60},
    "mult-filter": {"cutoff": 60.0, "sizes": [4] * 14, "checkpoint": 150},
}
SUITE_CONFIGS = ("baseline", "phase")
SETUP_REPEATS = 3
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import cascad.bench, cascad.drat; "
                "print(time.perf_counter() - t)")


class Abort(Exception):
    """The outputs cannot be vouched for: a verdict or a generator's label
    contradicted the oracle, or generation was not deterministic."""


@dataclass
class Instance:
    id: str
    data: bytes          # the AIGER bytes the program is given
    expected: str        # "SAT" | "UNSAT", from the oracle
    provenance: dict


@dataclass
class Sample:
    id: str
    config: str
    wall: float
    failed: str | None   # why the run failed, None if it gave a verdict
    counts: Counter      # deterministic counts of this run
    overhead: float = 0.0  # run_suite wall beyond the child's own timings
    at: float = 0.0      # perf_counter at the middle of the run


# -- set-up -----------------------------------------------------------------------


def generate(workload: str, seed: int):
    import gen
    spec = WORKLOADS[workload]
    if workload == "random-suite":
        return gen.random_suite(seed, spec["bases"], spec["n_sat"],
                                spec["n_unsat"])
    return gen.multiplier_miters(seed, spec["sizes"])


def timed_setup(workload: str, seed: int, cal):
    """Median import and generation time over SETUP_REPEATS; raw instances."""
    env = dict(os.environ, PYTHONPATH=SRC)
    imports = []
    for _ in range(SETUP_REPEATS):
        cal.sample()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=60, check=True)
        imports.append(float(out.stdout.strip().splitlines()[-1]))
    gens, raw = [], None
    for _ in range(SETUP_REPEATS):
        cal.sample()
        t0 = time.perf_counter()
        made = generate(workload, seed)
        gens.append(time.perf_counter() - t0)
        if raw is not None and [m[1] for m in made] != [m[1] for m in raw]:
            raise Abort("generation is not deterministic for this seed")
        raw = made
    return statistics.median(imports), statistics.median(gens), raw


def canonical_cnf(data: bytes):
    from cascad.circuit import parse_aiger
    from cascad.cnf import tseitin_encode
    c = parse_aiger(data)
    cnf, _ = tseitin_encode(c, [(c.primary_outputs[0], True)])
    return tuple(sorted(tuple(sorted(cl)) for cl in cnf.clauses))


def verified_instances(raw) -> tuple[list[Instance], int]:
    """Oracle status for every miter; duplicates by canonical CNF dropped."""
    import oracle
    seen, out, dropped = set(), [], 0
    for id, data, label, provenance in raw:
        key = canonical_cnf(data)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        expected = oracle.expected_status(data)
        if label != expected:
            raise Abort(f"generator labelled {id} {label}, oracle says {expected}")
        out.append(Instance(id, data, expected, provenance))
    return out, dropped


# -- one run ------------------------------------------------------------------------


def check_verdict(inst: Instance, status: str, label: str):
    if status in ("SAT", "UNSAT") and status != inst.expected:
        raise Abort(f"{label} reported {status} on {inst.id} "
                    f"(oracle: {inst.expected})")


def check_model(inst: Instance, circuit, vmap, model):
    import oracle
    values = [model[vmap.gate_to_var[g]] for g in circuit.primary_inputs]
    if not oracle.output_on(inst.data, values):
        raise Abort(f"SAT model for {inst.id} does not drive the miter to 1")


def solver_counts(stats: dict) -> Counter:
    return Counter({f"solver.{k}": stats[k] for k in
                    ("conflicts", "decisions", "propagations", "learnt_current")})


def run_suite_case(inst: Instance, config: str, cutoff: float, tracer):
    from cascad import bench, circuit
    cfg = bench.BenchConfig(config, kind=config)
    t0 = time.perf_counter()
    miter = circuit.parse_aiger(inst.data)
    case = bench.BenchCase(inst.id, miter, inst.expected)
    t1 = time.perf_counter()
    span = len(tracer.spans) if tracer else 0
    try:
        record = bench.run_suite([case], [cfg], cutoff, jobs=1)[0]
    except bench.CorrectnessAlarm as e:
        raise Abort(str(e)) from e
    t2 = time.perf_counter()
    if tracer:
        tracer.adopt(record, span)
    status = record["status"]
    check_verdict(inst, status, config)
    counts = solver_counts(record["stats"]) if record.get("stats") else Counter()
    counts["bench.runs"] = 1
    overhead = (t2 - t1) - record["solving_seconds"] - record["inference_seconds"]
    failed = None if status in ("SAT", "UNSAT") else status
    return Sample(inst.id, config, t2 - t0, failed, counts, overhead,
                  (t0 + t2) / 2)


def run_mult_case(inst: Instance, checkpoint: int | None):
    from cascad import circuit, cnf, drat, estimator, heuristics, solver
    t0 = time.perf_counter()
    miter = circuit.parse_aiger(inst.data)
    po = miter.primary_outputs[0]
    formula, vmap = cnf.tseitin_encode(miter, [(po, True)])
    proof = report = None
    if checkpoint is None:
        outcome = solver.Solver(formula, solver.SolverConfig()).solve()
    else:
        est = estimator.Estimator(
            miter, estimator.EstimatorConfig(backend=estimator.Backend.EXACT))
        proof = drat.DratProof()
        s = solver.Solver(formula, solver.SolverConfig(), drat_sink=proof)
        report = heuristics.run_clause_filter(
            s, heuristics.ClauseFilterPolicy(conflict_budget=checkpoint),
            est, vmap)
        outcome = report.outcome
    failed = None
    if proof is not None and outcome.status is solver.Status.UNSAT:
        ok, reason = drat.check_proof(formula.clauses, proof)
        if not ok:
            failed = f"proof rejected: {reason}"
    t1 = time.perf_counter()
    wall = t1 - t0

    status = outcome.status.value
    if outcome.model is not None:
        check_model(inst, miter, vmap, outcome.model)
    check_verdict(inst, status, "baseline")
    if status not in ("SAT", "UNSAT"):
        failed = status
    counts = solver_counts(outcome.stats.as_dict())
    if report is not None:
        counts["heuristics.filter_kept"] = report.kept
        counts["heuristics.filter_dropped"] = report.dropped
        counts["heuristics.filter_fired"] = int(report.fired_mid_solve)
        counts.update(proof_counts(proof))
    return Sample(inst.id, "baseline", wall, failed, counts, at=(t0 + t1) / 2)


def proof_counts(proof) -> Counter:
    """Step counts, plus deletions that name no clause by its literal order
    (the checker matches ordered tuples, so it skips those)."""
    counts = Counter()
    live = Counter()
    for kind, lits in proof.steps:
        if kind == "a":
            counts["drat.add_steps"] += 1
            live[lits] += 1
        else:
            counts["drat.delete_steps"] += 1
            if live[lits]:
                live[lits] -= 1
            else:
                counts["drat.delete_unmatched"] += 1
    return counts


class Runner:
    def __init__(self, workload: str, instances: list[Instance], cal):
        self.workload = workload
        self.cal = cal
        self.spec = WORKLOADS[workload]
        if workload == "random-suite":
            self.runs = [(inst, cfg) for inst in instances
                         for cfg in SUITE_CONFIGS]
        else:
            self.runs = [(inst, "baseline") for inst in instances]

    def one(self, inst, config, tracer=None):
        if self.workload == "random-suite":
            return run_suite_case(inst, config, self.spec["cutoff"], tracer)
        return run_mult_case(inst, self.spec.get("checkpoint"))

    def rounds(self, seconds: float, tracer=None, min_rounds: int = 1):
        """Whole rounds for about ``seconds``, at least ``min_rounds``.  The
        first round's time fixes the number of rounds, so every run gets the
        same number of repeats."""
        rounds = []
        start = time.perf_counter()
        planned = min_rounds
        while len(rounds) < planned:
            mark = Counter(tracer.counts) if tracer else None
            samples = []
            for inst, cfg in self.runs:
                if tracer is None:
                    self.cal.tick()
                samples.append(self.one(inst, cfg, tracer))
            traced = Counter(tracer.counts) - mark if tracer else Counter()
            rounds.append({"samples": samples, "traced_counts": traced})
            if len(rounds) == 1:
                first = time.perf_counter() - start
                planned = max(min_rounds, round(seconds / first))
        return rounds, time.perf_counter() - start


# -- metrics ------------------------------------------------------------------------


def score(sample: Sample, cutoff: float, scale) -> float:
    """PAR-2: the wall time of a verdict within the cutoff, times the host
    speed factor ``scale(sample.at)``, else 2 x cutoff."""
    ok = sample.failed is None and sample.wall <= cutoff
    return sample.wall * scale(sample.at) if ok else 2.0 * cutoff


def unscaled(_at: float) -> float:
    return 1.0


def tail(values: list[float]) -> tuple[float, int, int]:
    """Nearest-rank value at the highest whole percentile (50..99) that has at
    least TAIL_BEYOND values beyond it.  With too few values for p50 to
    qualify, the maximum (reported as percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100, 0

    def rank(p):  # 1-based nearest rank of percentile p
        return -(-p * n // 100)

    best = max(p for p in range(50, 100) if n - rank(p) >= TAIL_BEYOND)
    return ordered[rank(best) - 1], best, n - rank(best)


def round_counts(rnd) -> Counter:
    total = Counter()
    for s in rnd["samples"]:
        total.update(s.counts)
    total.update(rnd["traced_counts"])
    return total


def steady_counts(rounds) -> tuple[dict, list[str]]:
    """Counts of the first round, and the names that differ in a later one."""
    first = round_counts(rounds[0])
    bad = set()
    for rnd in rounds[1:]:
        other = round_counts(rnd)
        bad |= {k for k in first | other if first[k] != other[k]}
    return dict(first), sorted(bad)


def compare_with_last(workload, seed, counts: dict) -> list[str]:
    """Names whose count differs from the last run of this workload and seed."""
    path = os.path.join(STATE_DIR, f"counts-{workload}-{seed}.json")
    previous = {}
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
    bad = sorted(k for k in counts if k in previous and previous[k] != counts[k])
    os.makedirs(STATE_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**previous, **counts}, fh, indent=1, sort_keys=True)
    return bad


def samples_of(rounds) -> list[Sample]:
    return [s for r in rounds for s in r["samples"]]


def end_to_end(samples: list[Sample], cutoff: float,
               scale=unscaled) -> tuple[dict, dict]:
    """PAR-2 and time to verdict over (case, config) runs, with wall times
    scaled by ``scale``.  A run's time is the median of its repeats, so
    a burst of host noise in one repeat does not reach the tail."""
    repeats: dict = {}
    for s in samples:
        repeats.setdefault((s.id, s.config), []).append(score(s, cutoff, scale))
    times = [statistics.median(v) for v in repeats.values()]
    t_value, t_pct, t_beyond = tail(times)
    metrics = {
        "par2_s": statistics.fmean(times),
        "run_s.p50": statistics.median(times),
        "run_s.tail": t_value,
    }
    info = {"runs": len(times), "timed_runs": len(samples),
            "tail_percentile": t_pct, "tail_runs_beyond": t_beyond,
            "run_times": sorted(times)}
    return metrics, info


def install_tracing(tracer):
    from cascad import bench, circuit, cnf, drat, estimator, heuristics, solver

    def gates(counts, result):
        counts["circuit.gates"] += len(result)

    def clauses(counts, result):
        counts["cnf.clauses"] += len(result[0].clauses)

    tracer.wrap(circuit, "parse_aiger", "circuit.parse", gates)
    tracer.wrap(cnf, "tseitin_encode", "cnf.encode", clauses)
    tracer.wrap(bench, "tseitin_encode", "cnf.encode", clauses)
    tracer.wrap(bench, "run_suite", "bench.run_suite")
    tracer.wrap_child_entry(bench, "run_case", "bench.run_case")
    # Estimator.traces builds its trace set through these on first use
    for fn in ("exact_truth_table", "sample_patterns", "simulate"):
        tracer.wrap(estimator, fn, "sim.table")
    tracer.wrap(estimator.Estimator, "phase_table", "estimator.phase_table")
    tracer.wrap(estimator.Estimator, "clause_prob", "estimator.clause_prob",
                lambda counts, _: counts.update(["estimator.clause_prob_calls"]))
    tracer.wrap(bench, "build_phase_policy", "heuristics.policy")
    tracer.wrap(heuristics, "score_clauses", "heuristics.filter")
    tracer.wrap(heuristics, "run_clause_filter", "heuristics.clause_filter")
    tracer.wrap(solver.Solver, "__init__", "solver.init")
    tracer.wrap(solver.Solver, "solve", "solver.solve")
    tracer.wrap(solver.Solver, "propagate", "solver.propagate")
    tracer.wrap(solver.Solver, "analyze_conflict", "solver.analyze")
    tracer.wrap(solver.Solver, "reduce_db", "solver.reduce")
    tracer.wrap(drat, "check_proof", "drat.check")

    make_hook = bench.make_phase_hook

    def counting_make_phase_hook(policy):
        hook = make_hook(policy)

        def counted(var):
            phase = hook(var)
            tracer.counts["heuristics.phase_forced" if phase is not None
                          else "heuristics.phase_abstain"] += 1
            return phase
        return counted

    tracer.patch(bench, "make_phase_hook", counting_make_phase_hook)


OP_METRICS = {
    "solver.propagate_s": "solver.propagate",
    "solver.analyze_s": "solver.analyze",
    "solver.reduce_s": "solver.reduce",
    "solver.solve_s": "solver.solve",
    "solver.init_s": "solver.init",
    "drat.check_s": "drat.check",
    "heuristics.filter_s": "heuristics.filter",
    "estimator.clause_prob_s": "estimator.clause_prob",
    "sim.table_s": "sim.table",
    "estimator.phase_table_s": "estimator.phase_table",
    "heuristics.policy_s": "heuristics.policy",
    "circuit.parse_s": "circuit.parse",
    "cnf.encode_s": "cnf.encode",
}
COUNT_METRICS = (
    "solver.conflicts", "solver.decisions", "solver.propagations",
    "solver.learnt_current", "drat.add_steps", "drat.delete_steps",
    "drat.delete_unmatched", "heuristics.filter_kept",
    "heuristics.filter_dropped", "estimator.clause_prob_calls",
    "heuristics.phase_forced", "heuristics.phase_abstain", "bench.runs",
    "circuit.gates", "cnf.clauses",
)


def per_layer(traced_rounds, wall, untraced_p50, traced_p50, counts, gen_s,
              spans):
    import tracing
    n = len(traced_rounds)
    summary = tracing.summarize(spans, wall)
    inc = summary["inclusive"]
    m = {name: inc.get(span, 0.0) / n for name, span in OP_METRICS.items()}
    m["solver.conflicts_per_s"] = counts["solver.conflicts"] / m["solver.solve_s"]
    m["solver.propagations_per_s"] = (counts["solver.propagations"]
                                      / m["solver.solve_s"])
    m["bench.overhead_s"] = sum(s.overhead for r in traced_rounds
                                for s in r["samples"]) / n
    m["circuit.gen_s"] = gen_s
    for layer, secs in summary["layer_self"].items():
        m[f"self.{layer}_s"] = secs / n
    m["trace.uncovered_s"] = summary["uncovered"] / n
    m["trace.overhead_s"] = traced_p50 - untraced_p50
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    shares = {layer: secs / wall for layer, secs in
              summary["layer_self"].items()}
    shares["uncovered"] = summary["uncovered"] / wall
    return m, shares


UNITS = {"par2_s": "s", "run_s.p50": "s", "run_s.tail": "s",
         "solved_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
         "solver.conflicts_per_s": "1/s", "solver.propagations_per_s": "1/s"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


# -- record -------------------------------------------------------------------------


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and a hash of the
    program's sources either way."""
    git_sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git_sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "cascad")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_sha": git_sha, "source_sha256": digest.hexdigest()}


def machine() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine()}


def peak_rss_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def measure_timed(runner: Runner, seconds: float, cutoff: float):
    """End-to-end metrics over untraced rounds, in nominal-host seconds."""
    rounds, _ = runner.rounds(seconds,
                              min_rounds=runner.spec.get("min_rounds", 1))
    samples = samples_of(rounds)
    scale = runner.cal.scale_at
    metrics, info = end_to_end(samples, cutoff, scale)
    info["unscaled"] = end_to_end(samples, cutoff)[0]
    if runner.workload == "random-suite":
        info["by_config"] = {
            cfg: end_to_end([s for s in samples if s.config == cfg], cutoff,
                            scale)[0]
            for cfg in SUITE_CONFIGS}
    own_mb, child_mb = peak_rss_mb()
    metrics["peak_rss_mb"] = own_mb + child_mb
    info.update(rounds=len(rounds), rss_own_mb=own_mb, rss_child_mb=child_mb)
    return metrics, info, rounds, rounds


def measure_traced(runner: Runner, seconds: float, cutoff: float, gen_s: float):
    """One untraced round, then traced rounds for half of ``seconds``;
    per-layer metrics per traced round."""
    import tracing
    untraced, _ = runner.rounds(0)
    tracer = tracing.Tracer()
    install_tracing(tracer)
    try:
        traced, wall = runner.rounds(seconds / 2, tracer)
    finally:
        tracer.remove()
    untraced_p50 = end_to_end(samples_of(untraced), cutoff)[0]["run_s.p50"]
    traced_p50 = end_to_end(samples_of(traced), cutoff)[0]["run_s.p50"]
    metrics, shares = per_layer(traced, wall, untraced_p50, traced_p50,
                                round_counts(traced[0]), gen_s, tracer.spans)
    info = {"rounds": len(traced), "spans": len(tracer.spans),
            "layer_share": shares,
            "dominant_layer": max(shares, key=shares.get)}
    return metrics, info, untraced + traced, traced


def run_workload(args, spec: dict, record: dict, cal):
    """Set up, measure and check one workload; fills ``record`` and returns
    the metrics and the timed samples."""
    setup_start = time.perf_counter()
    import_s, gen_s, raw = timed_setup(args.workload, args.seed, cal)
    setup_at = (setup_start + time.perf_counter()) / 2
    instances, dropped = verified_instances(raw)
    record.update(import_s=import_s, gen_s=gen_s, cases=len(instances),
                  duplicates_dropped=dropped,
                  expected=dict(Counter(i.expected for i in instances)),
                  instances=[{"id": i.id, "expected": i.expected,
                              **i.provenance} for i in instances])
    runner = Runner(args.workload, instances, cal)
    # warm-up, untimed: lazy imports and first-call costs
    runner.one(*min(runner.runs, key=lambda r: len(r[0].data)))

    if args.trace:
        metrics, info, rounds, counted = measure_traced(
            runner, args.seconds, spec["cutoff"], gen_s)
    else:
        metrics, info, rounds, counted = measure_timed(
            runner, args.seconds, spec["cutoff"])
    samples = samples_of(rounds)
    failures = [s for s in samples if s.failed is not None]
    if not args.trace:
        metrics["solved_frac"] = 1.0 - len(failures) / len(samples)
        metrics["setup_s"] = (import_s + gen_s) * cal.scale_at(setup_at)
    counts, unsteady = steady_counts(counted)
    changed = compare_with_last(args.workload, args.seed, counts)
    for name in changed + unsteady:
        print(f"perfbench: count {name} did not repeat exactly",
              file=sys.stderr)
    record["calibration"] = {
        "nominal_s": calib.NOMINAL_S, "samples": len(cal.times),
        "median_s": statistics.median(cal.times), "scale": cal.scale(),
        "times": cal.times}
    record.update(info, failed_frac=len(failures) / len(samples),
                  failures=sorted({f"{s.id}/{s.config}: {s.failed}"
                                   for s in failures}),
                  counts=counts, counts_unsteady_between_rounds=unsteady,
                  counts_changed_since_last_run=changed)
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cascad", "__init__.py")):
        print(f"perfbench: no cascad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cascad
    if not os.path.abspath(cascad.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported cascad from {cascad.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "cutoff_s": spec["cutoff"],
              "filter_checkpoint": spec.get("checkpoint"),
              "machine": machine(), **source_identity()}
    samples: list[Sample] = []
    metrics: dict = {}
    correct = True
    try:
        with calib.Calibration() as cal:
            metrics, samples = run_workload(args, spec, record, cal)
    except Abort as e:
        correct = False
        record["abort"] = str(e)
        print(f"perfbench: {e}", file=sys.stderr)

    print(json.dumps({"perfbench_record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": max(len(samples), 1),
        "failed": sum(1 for s in samples if s.failed is not None),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
