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
import math
import os
import pickle
import random
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

import numpy as np

from .circuit import (Circuit, CircuitError, GateKind, MutationError,
                      build_miter, emit_aiger, mutate_circuit, parse_aiger,
                      rebuild, strash)
from .cnf import check_model, tseitin_encode
from .estimator import EXACT_PI_CAP, Estimator
from .heuristics import (AdaptiveUnsatPolicy, ClauseFilterPolicy,
                         adaptive_solve, build_phase_policy, make_phase_hook,
                         run_clause_filter)
from .sim import exact_truth_table
from .solver import Solver, SolveOutcome, SolverConfig, SolverStats, Status

MUTATION_RETRIES = 20
PIPE_CHUNK = 1 << 16  # bytes of a child's record read at a time
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
    per_case: dict[str, float]
    average: float


# -- function-preserving transforms -------------------------------------------


def _twin(circuit: Circuit, swap: int | None = None) -> Circuit:
    """A rebuild of ``circuit`` into a fresh Circuit, in which AND gate
    ``swap``, if given, takes its fanins in the other order."""
    out = Circuit()

    def edit(i, fanins):
        return out.add_and(fanins[1], fanins[0]) if i == swap else None

    node_map = rebuild(circuit, out, {}, edit)
    out.set_outputs([node_map[p] for p in circuit.primary_outputs])
    return out


def commute_fanins(circuit: Circuit, seed: int) -> Circuit:
    """Swap the fanin order of one AND gate."""
    rng = random.Random(seed)
    ands = [i for i, g in enumerate(circuit.gates) if g.kind is GateKind.AND]
    return _twin(circuit, rng.choice(ands) if ands else None)


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
    # an unchanged rebuild; first, so that gen_suite draws as it always did
    "identity": lambda c, _seed: _twin(c),
    "reassociate": reassociate,
    "commute": commute_fanins,
}


def _output_rows(circuit: Circuit) -> list[np.ndarray]:
    """The outputs' exact truth-table rows, copied out so that the table,
    a row for every gate of the outputs' hashed cone, is freed on return."""
    cone = strash(circuit)
    table = exact_truth_table(cone)
    return [table.trace(p).copy() for p in cone.primary_outputs]


def gen_suite(bases: list[Circuit], n_sat: int, n_unsat: int,
              seed: int = 0) -> list[BenchCase]:
    rng = random.Random(seed)
    cases: list[BenchCase] = []
    names = list(TRANSFORMS)
    # each base's output rows, simulated once, so a check builds one gate
    # table at a time.  A table covers only the outputs' hashed cone, about
    # 1 MB on a 16-input, 800-AND base with four outputs, against 9 MB for
    # every gate; two tables freed together can leave the C heap's free top
    # close to glibc's trim threshold, and whether that memory goes back to
    # the system then varies from run to run
    base_rows: dict[int, list[np.ndarray]] = {}

    def same_function(k: int, other: Circuit) -> bool:
        i = k % len(bases)
        if i not in base_rows:
            base_rows[i] = _output_rows(bases[i])
        return all(map(np.array_equal, base_rows[i], _output_rows(other)))

    for k in range(n_unsat):
        base = bases[k % len(bases)]
        recipe = rng.choice(names)
        tseed = rng.randrange(2**32)
        twin = TRANSFORMS[recipe](base, tseed)
        verifiable = len(base.primary_inputs) <= EXACT_PI_CAP
        if verifiable and not same_function(k, twin):
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
            if not verifiable or not same_function(k, candidate):
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
    """The cases ``save_suite`` wrote; a malformed manifest or case file,
    a case with no output to assert, or a case id the manifest repeats,
    raises SuiteError naming its path."""
    path = os.path.join(directory, "manifest.json")
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8
            raise SuiteError(f"{path}: {e}") from None
    if not isinstance(manifest, list):
        raise SuiteError(f"{path}: not a list of cases")
    cases = []
    ids = set()
    for number, entry in enumerate(manifest):
        # an unknown expected status would silently turn off the alarm
        if not (isinstance(entry, dict)
                and all(isinstance(entry.get(k), str) for k in ("id", "aiger"))
                and entry.get("expected") in ("SAT", "UNSAT", "unknown")):
            raise SuiteError(f"{path}: case {number} needs a string id and "
                             "aiger and expected SAT, UNSAT or unknown")
        if entry["id"] in ids:
            raise SuiteError(f"{path}: case id {entry['id']!r} repeated")
        ids.add(entry["id"])
        case_path = os.path.join(directory, entry["aiger"])
        with open(case_path, "rb") as fh:
            data = fh.read()
        try:
            miter = parse_aiger(data)
        except CircuitError as e:
            raise SuiteError(f"{case_path}: {e}") from None
        if not miter.primary_outputs:
            raise SuiteError(f"{case_path} has no outputs to assert")
        cases.append(BenchCase(entry["id"], miter, entry["expected"],
                               entry.get("provenance", {})))
    return cases


# -- running ------------------------------------------------------------------


def solve_miter(miter: Circuit, mode: str,
                clause_filter: ClauseFilterPolicy | None = None,
                adaptive: AdaptiveUnsatPolicy | None = None
                ) -> tuple[SolveOutcome, dict]:
    """The one place a mode becomes the steps of a solve, with the first
    output asserted true.  The miter is structurally hashed first (``strash``),
    which keeps only the outputs' cone: a gate both halves share is encoded,
    simulated and searched once, and a gate no output reads not at all.  The
    encoding, the estimator and every mode work on the hashed miter, which
    for a single-output miter is the asserted output's cone.
    In phase and adaptive mode the trace set is first asked for a witness,
    a pattern that sets the output: one answers SAT, its gate values checked
    as a model, and no table, policy or solver is built.  Without one, the
    phase table is empty and the solver searches with the hook.  When the
    trace set or the table cannot be built, the solver searches without a
    hook and the record counts one phase fallback.
    Its PIs keep their order and so own CNF variables 1..len(PIs): a SAT
    model's first len(PIs) values are an input row on which the given
    miter's output is 1.

    Returns the outcome and the run's record fields: wall, solving and
    inference seconds (hashing, encoding and the set-up of the one solver
    built here in none of them, though adaptive stage 2 builds its fresh
    UNSAT_TUNED solver inside solving; a trace answer is all inference, and
    in clause-filter mode solving is the solver's own time, so the trace
    build and the scoring between its two solves are inference), plus the
    filter report under ``clause_filter``, the adaptive ``stage`` and
    ``stage1_wall``, and in phase and adaptive mode ``phase_fallbacks``, 1
    when the trace set or the phase table could not be built, and
    ``sim_answer``, whether a trace answered."""
    check_mode(mode)
    miter = strash(miter)
    po = miter.primary_outputs[0]
    cnf, vmap = tseitin_encode(miter, [(po, True)])
    estimator = hook = model = None
    fallbacks = 0
    inference_seconds = 0.0
    if mode != "baseline":
        t0 = time.monotonic()
        estimator = Estimator(miter)
        if mode != "clause-filter":
            try:
                values = estimator.witness(po)
                if values is None:
                    hook = make_phase_hook(
                        build_phase_policy(estimator, po, vmap))
            except Exception:  # no trace set or table: search unguided
                values, fallbacks = None, 1
            if values is not None:
                model = {v: values[g] for v, g in vmap.var_to_gate.items()}
                check_model(cnf.clauses, model)
        inference_seconds = time.monotonic() - t0

    if model is None:
        solver = Solver(cnf, SolverConfig(), phase_hook=hook)
    fields: dict = {}
    t0 = time.monotonic()
    if model is not None:
        outcome = SolveOutcome(Status.SAT, model, SolverStats())
        if mode == "adaptive":
            fields.update(stage=1, stage1_wall=0.0)
    elif mode == "clause-filter":
        rep = run_clause_filter(solver, clause_filter or ClauseFilterPolicy(),
                                estimator, vmap)
        outcome = rep.outcome
        fields["clause_filter"] = {k: v for k, v in vars(rep).items()
                                   if k not in ("scores", "outcome")}
    elif mode == "adaptive":
        result = adaptive_solve(solver, cnf, adaptive or AdaptiveUnsatPolicy())
        outcome = result.outcome
        fields.update(stage=result.stage, stage1_wall=result.stage1_wall)
    else:
        outcome = solver.solve()
    solving_seconds = 0.0 if model is not None else time.monotonic() - t0
    if mode == "clause-filter":
        inference_seconds += solving_seconds - outcome.stats.wall_time
        solving_seconds = outcome.stats.wall_time
    if mode in ("phase", "adaptive"):
        fields.update(phase_fallbacks=fallbacks, sim_answer=model is not None)
    return outcome, {"wall_seconds": solving_seconds + inference_seconds,
                     "solving_seconds": solving_seconds,
                     "inference_seconds": inference_seconds, **fields}


def run_case(case: BenchCase, config: BenchConfig) -> dict:
    """Solve one miter under one config; returns a RunRecord dict."""
    outcome, fields = solve_miter(case.miter, config.kind)
    return {"case": case.id, "config": config.label,
            "status": outcome.status.value, **fields,
            "stats": outcome.stats.as_dict()}


def _worker(case, config, fd: int):
    """A forked child's whole run: the record of run_case, looked up by name
    when the child runs, pickled into the pipe ``fd``.  The child always
    leaves through ``os._exit``, so it never returns into the caller's code;
    one that leaves without writing its record, as on a ``SystemExit``, is
    recorded by the parent as ERROR."""
    code = 1
    try:
        try:
            record = run_case(case, config)
        except Exception as e:  # crash recorded by the parent as ERROR
            record = {"case": case.id, "config": config.label,
                      "status": "ERROR", "error": repr(e)}
        with open(fd, "wb") as pipe:
            pickle.dump(record, pipe)
        code = 0
    finally:
        os._exit(code)


def run_suite(cases: list[BenchCase], configs: list[BenchConfig],
              cutoff: float, jobs: int = 1,
              out_path: str | None = None) -> list[dict]:
    """Run every (case, config) pair in a forked child with a wall cutoff;
    records are appended to out_path (JSON lines) as they finish.

    The parent reads each child's record from a pipe until EOF and then
    reaps the child.  A child that leaves no whole record is ERROR; one
    still running at its cutoff is killed with SIGKILL and is TIMEOUT.  No
    child outlives the call: on the way out, every one still running is
    killed and reaped."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, not {jobs}")
    if not 0 < cutoff < math.inf:
        raise ValueError(f"cutoff must be positive and finite, not {cutoff}")
    tasks = [(case, cfg) for case in cases for cfg in configs]
    records: list[dict] = []
    active: dict = {}  # pipe read end -> (pid, chunks, case, config, deadline)
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
                read_end, write_end = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(read_end)
                    _worker(case, cfg, write_end)
                os.close(write_end)
                active[read_end] = (pid, [], case, cfg,
                                    time.monotonic() + cutoff)
            nearest = min(deadline for *_, deadline in active.values())
            ready = wait(list(active), max(0.0, nearest - time.monotonic()))
            now = time.monotonic()
            for fd, (pid, chunks, case, cfg, deadline) in list(active.items()):
                if fd in ready:
                    chunk = os.read(fd, PIPE_CHUNK)
                    if chunk:
                        chunks.append(chunk)
                        continue
                    try:
                        record = pickle.loads(b"".join(chunks))
                    except (EOFError, pickle.UnpicklingError):
                        # the worker died without a whole record
                        record = {"case": case.id, "config": cfg.label,
                                  "status": "ERROR"}
                elif now >= deadline:
                    os.kill(pid, signal.SIGKILL)
                    record = {"case": case.id, "config": cfg.label,
                              "status": "TIMEOUT"}
                else:
                    continue
                os.waitpid(pid, 0)
                del active[fd]
                os.close(fd)
                if record["status"] in ("ERROR", "TIMEOUT"):
                    record.update(wall_seconds=cutoff, solving_seconds=cutoff,
                                  inference_seconds=0.0, stats={})
                finish(record, case)
    finally:
        for fd, (pid, *_) in active.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)
        if sink:
            sink.close()
    return records


# -- scoring and reporting ----------------------------------------------------


def par2(records: list[dict], cutoff: float) -> Par2Score:
    """Solved within the cutoff scores its wall time; anything else scores
    twice the cutoff; a case recorded twice raises ``ValueError``."""
    per_case: dict[str, float] = {}
    for r in records:
        if r["case"] in per_case:
            raise ValueError(f"two records of case {r['case']!r} under "
                             f"config {r['config']!r}")
        solved = r["status"] in ("SAT", "UNSAT") and r["wall_seconds"] <= cutoff
        per_case[r["case"]] = r["wall_seconds"] if solved else 2.0 * cutoff
    average = sum(per_case.values()) / len(per_case) if per_case else 0.0
    return Par2Score(per_case, average)


def par2_by_config(records: list[dict], cutoff: float) -> dict[str, Par2Score]:
    configs = sorted({r["config"] for r in records})
    return {label: par2([r for r in records if r["config"] == label], cutoff)
            for label in configs}


def report(records: list[dict], cutoff: float) -> tuple[str, dict]:
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
                  if r["config"] == "baseline"
                  and r["status"] in ("SAT", "UNSAT")}
    for label in configs:
        rows = [r for r in records if r["config"] == label]
        solved = sorted(r["wall_seconds"] for r in rows
                        if r["status"] in ("SAT", "UNSAT"))
        cactus[label] = [{"solved": i + 1, "time": t}
                         for i, t in enumerate(solved)]
        inference[label] = sum(r.get("inference_seconds", 0.0) for r in rows)
        if label != "baseline":
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
