"""LEC benchmark harness: suite generation, isolated-process runs, PAR-2
scoring, and machine-readable reports.

UNSAT cases pair a base circuit with a function-preserving transform of
itself; SAT cases pair it with a seeded mutation verified non-equivalent.
Miters with at most 16 PIs carry an exhaustively verified expected status.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing as mp
import os
import random
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

import numpy as np

from .circuit import (Circuit, Gate, GateKind, MutationError, build_miter,
                      emit_aiger, mutate_circuit, parse_aiger, rebuild)
from .cnf import tseitin_encode
from .estimator import (EXACT_PI_CAP, Estimator, EstimatorConfig,
                        default_backend)
from .heuristics import (AdaptiveUnsatPolicy, ClauseFilterPolicy,
                         adaptive_solve, build_phase_policy, make_phase_hook,
                         run_clause_filter)
from .sim import exact_truth_table
from .solver import Solver, SolveOutcome, SolverConfig

MUTATION_RETRIES = 20
MODES = ("baseline", "phase", "clause-filter", "adaptive")


class SuiteError(Exception):
    pass


class CorrectnessAlarm(Exception):
    """A run contradicted a verified expected status."""


@dataclass
class BenchCase:
    id: str
    miter: Circuit
    expected: str  # "SAT" | "UNSAT" | "unknown"
    provenance: dict = field(default_factory=dict)


def check_mode(mode: str):
    if mode not in MODES:
        raise SuiteError(f"unknown mode {mode!r}; modes are {', '.join(MODES)}")


@dataclass
class BenchConfig:
    label: str
    kind: str = "baseline"  # one of MODES

    def __post_init__(self):
        check_mode(self.kind)


@dataclass
class Par2Score:
    cutoff: float
    per_case: dict[str, float]
    average: float


# -- function-preserving transforms -------------------------------------------


def _raw_not(c: Circuit, a: int) -> int:
    # bypasses the shared-NOT cache: deliberately builds NOT(NOT(x)) chains
    return c._append(Gate(GateKind.NOT, (a,)))


def double_negate(circuit: Circuit, seed: int) -> Circuit:
    """Insert NOT(NOT(x)) on one AND fanin."""
    rng = random.Random(seed)
    ands = [i for i, g in enumerate(circuit.gates) if g.kind is GateKind.AND]
    if not ands:
        return circuit.copy()
    target = rng.choice(ands)
    slot = rng.randrange(2)
    out = Circuit()

    def edit(i, fanins):
        if i != target:
            return None
        a, b = fanins
        repl = _raw_not(out, _raw_not(out, a if slot == 0 else b))
        return out.add_and(*((repl, b) if slot == 0 else (a, repl)))

    node_map = rebuild(circuit, out, {}, edit)
    out.set_outputs([node_map[p] for p in circuit.primary_outputs])
    return out


def commute_fanins(circuit: Circuit, seed: int) -> Circuit:
    """Swap the fanin order of one AND gate."""
    rng = random.Random(seed)
    ands = [i for i, g in enumerate(circuit.gates) if g.kind is GateKind.AND]
    if not ands:
        return circuit.copy()
    target = rng.choice(ands)
    out = circuit.copy()
    g = out.gates[target]
    out.gates[target] = Gate(GateKind.AND, (g.fanins[1], g.fanins[0]))
    return out


def reassociate(circuit: Circuit, seed: int) -> Circuit:
    """Rewrite one AND(AND(a,b),c) into AND(a,AND(b,c))."""
    rng = random.Random(seed)
    sites = []
    for i, g in enumerate(circuit.gates):
        if g.kind is GateKind.AND:
            for slot, f in enumerate(g.fanins):
                if circuit.gates[f].kind is GateKind.AND:
                    sites.append((i, slot))
    if not sites:
        return commute_fanins(circuit, seed)
    top, slot = rng.choice(sites)
    inner = circuit.gates[top].fanins[slot]
    a, b = circuit.gates[inner].fanins
    out = Circuit()
    node_map: dict[int, int] = {}

    def edit(i, fanins):
        if i != top:
            return None
        inner_new = out.add_and(node_map[b], fanins[1 - slot])
        return out.add_and(node_map[a], inner_new)

    rebuild(circuit, out, node_map, edit)
    out.set_outputs([node_map[p] for p in circuit.primary_outputs])
    return out


TRANSFORMS = {
    "double_negate": double_negate,
    "reassociate": reassociate,
    "commute": commute_fanins,
}


def _functionally_equal(a: Circuit, b: Circuit) -> bool:
    ta, tb = exact_truth_table(a), exact_truth_table(b)
    for pa, pb in zip(a.primary_outputs, b.primary_outputs):
        if not np.array_equal(ta.trace(pa), tb.trace(pb)):
            return False
    return True


def gen_suite(bases: list[Circuit], n_sat: int, n_unsat: int,
              seed: int = 0) -> list[BenchCase]:
    rng = random.Random(seed)
    cases: list[BenchCase] = []
    names = list(TRANSFORMS)
    for k in range(n_unsat):
        base = bases[k % len(bases)]
        recipe = rng.choice(names)
        tseed = rng.randrange(2**32)
        twin = TRANSFORMS[recipe](base, tseed)
        verifiable = len(base.primary_inputs) <= EXACT_PI_CAP
        if verifiable and not _functionally_equal(base, twin):
            raise SuiteError(f"transform {recipe} changed the function")
        cases.append(BenchCase(
            id=f"unsat-{k:03d}", miter=build_miter(base, twin),
            expected="UNSAT" if verifiable else "unknown",
            provenance={"base": k % len(bases), "recipe": recipe, "seed": tseed}))
    for k in range(n_sat):
        base = bases[k % len(bases)]
        verifiable = len(base.primary_inputs) <= EXACT_PI_CAP
        mutant = None
        mseed = None
        for _ in range(MUTATION_RETRIES):
            mseed = rng.randrange(2**32)
            try:
                candidate = mutate_circuit(base, mseed)
            except MutationError:
                continue
            if not verifiable or not _functionally_equal(base, candidate):
                mutant = candidate
                break
        if mutant is None:
            raise SuiteError(f"no effective mutation found for SAT case {k}")
        cases.append(BenchCase(
            id=f"sat-{k:03d}", miter=build_miter(base, mutant),
            expected="SAT" if verifiable else "unknown",
            provenance={"base": k % len(bases), "recipe": "mutate", "seed": mseed}))
    return cases


def save_suite(cases: list[BenchCase], directory: str):
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for case in cases:
        path = os.path.join(directory, case.id + ".aag")
        with open(path, "wb") as fh:
            fh.write(emit_aiger(case.miter))
        manifest.append({"id": case.id, "aiger": case.id + ".aag",
                         "expected": case.expected, "provenance": case.provenance})
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_suite(directory: str) -> list[BenchCase]:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    cases = []
    for entry in manifest:
        with open(os.path.join(directory, entry["aiger"]), "rb") as fh:
            miter = parse_aiger(fh.read())
        cases.append(BenchCase(entry["id"], miter, entry["expected"],
                               entry.get("provenance", {})))
    return cases


# -- running ------------------------------------------------------------------


def solve_miter(miter: Circuit, mode: str, tau: float = 0.005,
                refresh: tuple[int, int] | None = None,
                clause_filter: ClauseFilterPolicy | None = None,
                adaptive: AdaptiveUnsatPolicy | None = None
                ) -> tuple[SolveOutcome, dict]:
    """The one place a mode becomes the steps of a solve, with the first
    output asserted true.  Returns the outcome and the run's record fields:
    wall, solving and inference seconds (encoding and solver set-up in
    neither), plus the filter report under ``clause_filter``, the adaptive
    ``stage`` and ``stage1_wall``, and in phase and adaptive mode
    ``phase_fallbacks``, the phase policy's estimator failures.
    ``refresh`` (K, C) is for phase mode."""
    check_mode(mode)
    po = miter.primary_outputs[0]
    cnf, vmap = tseitin_encode(miter, [(po, True)])
    estimator = policy = hook = on_restart = None
    inference_seconds = 0.0
    if mode != "baseline":
        t0 = time.monotonic()
        estimator = Estimator(miter, EstimatorConfig(
            backend=default_backend(miter)))
        if mode != "clause-filter":
            refresh = refresh if mode == "phase" and refresh else ()
            policy = build_phase_policy(estimator, po, vmap, tau, *refresh)
            hook = make_phase_hook(policy)
            if policy.refresh_every_restarts:
                on_restart = policy.on_restart
        inference_seconds = time.monotonic() - t0

    if mode != "adaptive":
        solver = Solver(cnf, SolverConfig(), phase_hook=hook,
                        on_restart=on_restart)
    fields: dict = {}
    t0 = time.monotonic()
    if mode == "clause-filter":
        rep = run_clause_filter(solver, clause_filter or ClauseFilterPolicy(),
                                estimator, vmap)
        outcome = rep.outcome
        fields["clause_filter"] = {k: v for k, v in vars(rep).items()
                                   if k not in ("scores", "outcome")}
    elif mode == "adaptive":
        # no proof is read yet, so none is logged
        result = adaptive_solve(cnf, adaptive or AdaptiveUnsatPolicy(),
                                phase_hook=hook, want_proof=False)
        outcome = result.outcome
        fields.update(stage=result.stage, stage1_wall=result.stage1_wall)
    else:
        outcome = solver.solve()
    solving_seconds = time.monotonic() - t0
    if policy is not None:
        fields["phase_fallbacks"] = policy.fallbacks
    return outcome, {"wall_seconds": solving_seconds + inference_seconds,
                     "solving_seconds": solving_seconds,
                     "inference_seconds": inference_seconds, **fields}


def run_case(case: BenchCase, config: BenchConfig) -> dict:
    """Solve one miter under one config; returns a RunRecord dict."""
    outcome, fields = solve_miter(case.miter, config.kind)
    return {"case": case.id, "config": config.label,
            "status": outcome.status.value, **fields,
            "stats": outcome.stats.as_dict()}


def _worker(case, config, conn):
    try:
        record = run_case(case, config)
    except Exception as e:  # crash recorded by the parent as ERROR
        record = {"case": case.id, "config": config.label,
                  "status": "ERROR", "error": repr(e)}
    conn.send(record)
    conn.close()


def run_suite(cases: list[BenchCase], configs: list[BenchConfig],
              cutoff: float, jobs: int = 1,
              out_path: str | None = None) -> list[dict]:
    """Run every (case, config) pair in an isolated process with a wall
    cutoff; records are appended to out_path (JSON lines) as they finish."""
    tasks = [(case, cfg) for case in cases for cfg in configs]
    records: list[dict] = []
    active: dict = {}  # result pipe -> (process, case, config, deadline)
    sink = open(out_path, "a") if out_path else None

    def finish(record, case):
        records.append(record)
        if sink:
            sink.write(json.dumps(record) + "\n")
            sink.flush()
        if case.expected in ("SAT", "UNSAT") and \
                record["status"] in ("SAT", "UNSAT") and \
                record["status"] != case.expected:
            raise CorrectnessAlarm(
                f"{record['config']} reported {record['status']} on "
                f"{case.id} (expected {case.expected})")

    try:
        while tasks or active:
            while tasks and len(active) < jobs:
                case, cfg = tasks.pop(0)
                parent, child = mp.Pipe()
                proc = mp.Process(target=_worker, args=(case, cfg, child))
                proc.start()
                child.close()
                active[parent] = (proc, case, cfg, time.monotonic() + cutoff)
            nearest = min(deadline for *_, deadline in active.values())
            ready = wait(list(active), max(0.0, nearest - time.monotonic()))
            now = time.monotonic()
            for conn, (proc, case, cfg, deadline) in list(active.items()):
                if conn in ready:
                    try:
                        record = conn.recv()
                    except EOFError:  # the worker died without a record
                        record = {"case": case.id, "config": cfg.label,
                                  "status": "ERROR"}
                    proc.join()
                elif now >= deadline:
                    proc.terminate()
                    proc.join()
                    record = {"case": case.id, "config": cfg.label,
                              "status": "TIMEOUT"}
                else:
                    continue
                if record["status"] in ("ERROR", "TIMEOUT"):
                    record.update(wall_seconds=cutoff, solving_seconds=cutoff,
                                  inference_seconds=0.0, stats={})
                del active[conn]
                conn.close()
                finish(record, case)
    finally:
        for proc, *_ in active.values():
            proc.terminate()
        if sink:
            sink.close()
    return records


# -- scoring and reporting ----------------------------------------------------


def par2(records: list[dict], cutoff: float) -> Par2Score:
    """Solved within the cutoff scores its wall time; anything else scores
    twice the cutoff."""
    per_case: dict[str, float] = {}
    for r in records:
        solved = r["status"] in ("SAT", "UNSAT") and r["wall_seconds"] <= cutoff
        per_case[r["case"]] = r["wall_seconds"] if solved else 2.0 * cutoff
    average = sum(per_case.values()) / len(per_case) if per_case else 0.0
    return Par2Score(cutoff, per_case, average)


def par2_by_config(records: list[dict], cutoff: float) -> dict[str, Par2Score]:
    configs = sorted({r["config"] for r in records})
    return {label: par2([r for r in records if r["config"] == label], cutoff)
            for label in configs}


def report(records: list[dict], cutoff: float,
           baseline_label: str = "baseline") -> tuple[str, dict]:
    """CSV of per-run records plus a JSON summary with cactus data, scatter
    pairs against the baseline, PAR-2 table, and inference-time totals."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[
        "case", "config", "status", "wall_seconds", "solving_seconds",
        "inference_seconds"])
    writer.writeheader()
    for r in records:
        writer.writerow({k: r.get(k) for k in writer.fieldnames})

    scores = par2_by_config(records, cutoff)
    configs = sorted({r["config"] for r in records})
    cactus = {}
    scatter = {}
    inference = {}
    base_times = {r["case"]: r["wall_seconds"] for r in records
                  if r["config"] == baseline_label
                  and r["status"] in ("SAT", "UNSAT")}
    for label in configs:
        rows = [r for r in records if r["config"] == label]
        solved = sorted(r["wall_seconds"] for r in rows
                        if r["status"] in ("SAT", "UNSAT"))
        cactus[label] = [{"solved": i + 1, "time": t}
                         for i, t in enumerate(solved)]
        inference[label] = sum(r.get("inference_seconds", 0.0) for r in rows)
        if label != baseline_label:
            scatter[label] = [
                {"case": r["case"], "ours": r["wall_seconds"],
                 "baseline": base_times[r["case"]]}
                for r in rows if r["case"] in base_times
                and r["status"] in ("SAT", "UNSAT")]
    summary = {
        "cutoff": cutoff,
        "par2": {label: {"average": s.average, "per_case": s.per_case}
                 for label, s in scores.items()},
        "cactus": cactus,
        "scatter_vs_baseline": scatter,
        "inference_seconds_total": inference,
    }
    return buf.getvalue(), summary
