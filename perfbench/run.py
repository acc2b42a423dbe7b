#!/usr/bin/env python3
"""Benchmark of the mtcut solver, run from the root of a checkout.

    python3 perfbench/run.py --workload oracle-small --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: one kernelization or solve
at a time, ``thread_count=1``. The workload's instances are generated from
``--seed`` and set up the way the command line does it (instance text,
``parse_graph``, terminal placement, block growth). Passes over the
instances repeat until ``--seconds`` is used up, at least one pass.

End-to-end times are seconds at reference speed: wall seconds corrected
for the host's drifting speed by the probes of ``pace.Pacer``. The report
keeps the wall-clock totals as well.

Every answer is checked against an independent oracle outside the timed
regions. With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` an untraced pass and a traced pass are run and the
per-layer metrics are printed, with the tracing overhead. A report goes to
``.perfbench/`` in the checkout, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import betainc

import instances
import layers
import oracles
from pace import Pacer
from tracer import ClockWatch, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


# Problem.copy as loaded. The benchmark copies its prepared problems with
# it, so that a tracer wrapping the method never counts those copies.
PROBLEM_COPY = None


def load_program():
    """Import mtcut from the checkout's ``src``, never from elsewhere."""
    global PROBLEM_COPY
    src = ROOT / "src"
    if not (src / "mtcut" / "__init__.py").is_file():
        raise ProgramMissing(f"no mtcut package under {src}")
    sys.path.insert(0, str(src))
    import mtcut
    import mtcut.bench
    import mtcut.flow
    import mtcut.graph
    import mtcut.graphio
    import mtcut.localsearch
    import mtcut.reductions
    import mtcut.solver

    if Path(mtcut.__file__).resolve().parent != (src / "mtcut").resolve():
        raise ProgramMissing(f"mtcut was imported from {mtcut.__file__}")
    if PROBLEM_COPY is None:
        PROBLEM_COPY = mtcut.graph.Problem.copy
    return mtcut


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    specs: Callable[[int], list]
    setup_reps: int
    oracle: str  # "enumeration", "milp" or "isolating-bound"
    # time limit of the solve, given the same pass's kernelization seconds
    time_limit: Callable[[float], float]
    deadline_bound: bool = False


WORKLOADS = {
    # a generous limit: never reached, but it makes the solver read its clock
    "oracle-small": Workload(instances.oracle_specs, 21, "enumeration", lambda kt: 60.0),
    "grown-exact": Workload(instances.grown_specs, 21, "milp", lambda kt: 30.0),
    # The kernelization runs two reduction passes, and the first pass's
    # non_terminal_flows, which cannot be interrupted, takes about 0.30-0.51
    # of it on every seed. The deadline falls in its middle, so the solve
    # always stops at its end: a fixed amount of work.
    "torus-scale": Workload(instances.torus_specs, 9, "isolating-bound",
                            lambda kt: 0.42 * kt, deadline_bound=True),
}


def reference(workload: Workload, prep) -> tuple[bool, int]:
    """(exact, value): the optimum, or for the torus a lower bound."""
    spec = prep.spec
    if workload.oracle == "enumeration":
        return True, oracles.brute_force(spec.n, spec.edges, prep.terminals)
    g = prep.problem.graph
    live = list(g.live_vertices())
    edges = list(g.edges())
    roots = [g.find(t) for t in prep.terminals]
    if workload.oracle == "milp":
        return True, oracles.milp_optimum(live, edges, {r: i for i, r in enumerate(roots)},
                                          len(roots))
    return False, oracles.isolating_lower_bound(live, edges, roots)


# ---------------------------------------------------------------------------
# running


@dataclass
class Record:
    """Everything measured for one instance, over all passes."""

    kernel_s: list[float] = field(default_factory=list)
    kernel_wall_s: list[float] = field(default_factory=list)
    kernel_vertices: int = 0
    solve_s: list[float] = field(default_factory=list)
    solve_wall_s: list[float] = field(default_factory=list)
    gap_s: list[float] = field(default_factory=list)
    overshoot_s: list[float] = field(default_factory=list)
    values: list[int] = field(default_factory=list)
    optimal: list[bool] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)
    labels: list[int] | None = None


@dataclass
class Tally:
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)

    def fail(self, instance: str, stage: str, kind: str, detail: str) -> None:
        self.failures.append({"instance": instance, "stage": stage, "kind": kind,
                              "detail": detail[:300]})


def setup(mtcut, workload: Workload, seed: int) -> list:
    return [instances.prepare(spec, mtcut) for spec in workload.specs(seed)]


def span(pacer: Pacer | None, a: float, b: float) -> float:
    """Seconds of [a, b]: at reference speed when paced, else wall."""
    return b - a if pacer is None else pacer.seconds(a, b)


def run_pass(mtcut, workload: Workload, preps, refs, records, tally: Tally,
             watch: ClockWatch, pacer: Pacer | None) -> None:
    SolverConfig = mtcut.solver.SolverConfig
    for prep, (exact, ref) in zip(preps, refs):
        name = prep.spec.name
        rec = records.setdefault(name, Record())

        # the `mtcut kernelize` path
        q = PROBLEM_COPY(prep.problem)
        tally.attempted += 1
        try:
            t0 = time.perf_counter()
            report = mtcut.reductions.run_reduction_loop(
                q, mtcut.graph.BoundState(), SolverConfig(thread_count=1))
            t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            tally.fail(name, "kernelize", type(exc).__name__, str(exc))
            continue
        rec.kernel_s.append(span(pacer, t0, t1))
        rec.kernel_wall_s.append(t1 - t0)
        rec.kernel_vertices = report.vertices_after
        if exact and (q.lower_bound > ref or report.solved and q.deleted_weight != ref):
            tally.fail(name, "kernelize", "wrong",
                       f"bound {q.lower_bound}, solved={report.solved} with "
                       f"{q.deleted_weight}; optimum {ref}")

        # the `mtcut solve` path
        kernel_wall = t1 - t0
        if pacer is not None:
            # the same work at the host's speed now, which may have drifted
            now = time.perf_counter()
            kernel_wall *= pacer.speed(t0, t1) / pacer.speed(now, now)
        limit = workload.time_limit(kernel_wall)
        q = PROBLEM_COPY(prep.problem)
        tally.attempted += 1
        watch.take_max_gap()
        try:
            t0 = time.perf_counter()
            res = mtcut.solver.solve_prepared(q, SolverConfig(thread_count=1, time_limit=limit))
            t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            tally.fail(name, "solve", type(exc).__name__, str(exc))
            continue
        # the solver reads time.monotonic and the pacer time.perf_counter:
        # on Linux both are CLOCK_MONOTONIC, so their readings compare
        rec.gap_s.append(watch.take_max_gap(None if pacer is None else pacer.seconds))
        rec.solve_s.append(span(pacer, t0, t1))
        rec.solve_wall_s.append(t1 - t0)
        rec.overshoot_s.append(res.wall_time - limit)
        rec.values.append(res.value)
        rec.optimal.append(res.optimal)
        rec.nodes.append(res.nodes)
        rec.labels = res.labels
        spec = prep.spec
        value, why = oracles.score(spec.n, spec.edges, prep.terminals, res.labels)
        if why is not None:
            tally.fail(name, "solve", "wrong", f"infeasible labels: {why}")
        elif value != res.value:
            tally.fail(name, "solve", "wrong", f"labels cut {value}, reported {res.value}")
        elif res.value < ref:
            tally.fail(name, "solve", "wrong", f"value {res.value} below oracle {ref}")
        elif exact and res.optimal and res.value != ref:
            tally.fail(name, "solve", "wrong", f"optimal claimed at {res.value}, optimum {ref}")


def run_passes(mtcut, workload, preps, refs, tally, seconds: float | None,
               pacer: Pacer | None = None):
    """One pass, or as many as fit in ``seconds`` (at least one)."""
    records: dict[str, Record] = {}
    watch = ClockWatch()
    watch.install()
    try:
        started = time.perf_counter()
        passes = 0
        while True:
            run_pass(mtcut, workload, preps, refs, records, tally, watch, pacer)
            passes += 1
            elapsed = time.perf_counter() - started
            if seconds is None or elapsed + elapsed / passes > seconds:
                break
    finally:
        watch.restore()
    return records, passes


# ---------------------------------------------------------------------------
# metrics


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, for 0 < p < 1.

    A Beta-weighted mean of all order statistics: across seeds it varies
    far less than a single order statistic when the instances' times
    spread over orders of magnitude.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    return float(np.dot(np.diff(betainc(a, b, np.arange(n + 1) / n)), xs))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the tail: the highest
    percentile with at least 10 samples, and a tenth of them, beyond it;
    the maximum when there are 10 samples or fewer."""
    n = len(samples)
    if n <= 10:
        return max(samples), 100.0, 0
    beyond = max(10, n // 10)
    p = 1 - beyond / n
    return quantile(samples, p), 100.0 * p, beyond


def end_to_end(preps, records, tally, setup_times, workload: Workload) -> tuple[dict, dict]:
    med = statistics.median
    solved = [(p.spec.group, records[p.spec.name]) for p in preps
              if p.spec.name in records and records[p.spec.name].solve_s]
    if not solved:
        return {}, {}
    # copies of one graph differ only in numbering: their mean is one sample
    groups: dict[int, list[float]] = {}
    for group, rec in solved:
        groups.setdefault(group, []).append(med(rec.solve_s))
    solved = [rec for _, rec in solved]
    solve_s = [med(r.solve_s) for r in solved]
    tail_value, tail_pct, tail_beyond = tail(solve_s)
    kernels = [rec for rec in records.values() if rec.kernel_s]
    metrics = {
        "setup_s": (med(setup_times), "s"),
        "solve_s.p50": (quantile([statistics.mean(g) for g in groups.values()], 0.5), "s"),
        "solve_s.tail": (tail_value, "s"),
        "solve_total_s": (sum(solve_s), "s"),
        "kernel_s": (sum(med(r.kernel_s) for r in kernels), "s"),
        "kernel_vertices": (sum(r.kernel_vertices for r in kernels), "count"),
        "overshoot_s": (med([med(r.gap_s) for r in solved]), "s"),
        "value": (sum(med(r.values) for r in solved), "weight"),
        "ok_frac": (1.0 - len(tally.failures) / tally.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "solve_s.tail": {"percentile": tail_pct, "samples_beyond": tail_beyond,
                         "samples": len(solve_s)},
        "optimal_frac": sum(o for r in solved for o in r.optimal)
        / sum(len(r.optimal) for r in solved),
        "nodes_total": sum(med(r.nodes) for r in solved),
        # the same totals in wall seconds, uncorrected for the host's speed
        "solve_total_wall_s": sum(med(r.solve_wall_s) for r in solved),
        "kernel_wall_s": sum(med(r.kernel_wall_s) for r in kernels),
        "failed_frac": len(tally.failures) / tally.attempted,
        "instances": {name: {"solve_s": med(r.solve_s), "nodes": med(r.nodes),
                             "value": med(r.values), "kernel_s": med(r.kernel_s)}
                      for name, r in records.items() if r.solve_s},
    }
    if workload.deadline_bound:
        details["deadline_overshoot_s"] = med([med(r.overshoot_s) for r in solved])
    return metrics, details


def environment(mtcut) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "flow_backend": "scipy" if mtcut.flow.HAVE_SCIPY else "python",
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_setup(mtcut, workload, seed, reps, pacer=None):
    times = []
    preps = None
    for _ in range(reps):
        preps = None  # let the previous copy go before building the next
        t0 = time.perf_counter()
        preps = setup(mtcut, workload, seed)
        times.append(span(pacer, t0, time.perf_counter()))
    return preps, times


def run_untraced(mtcut, workload, seed, seconds):
    """The end-to-end run; its times are corrected for the host's speed."""
    with Pacer() as pacer:
        preps, setup_times = timed_setup(mtcut, workload, seed, workload.setup_reps, pacer)
        refs = [reference(workload, prep) for prep in preps]
        tally = Tally()
        records, passes = run_passes(mtcut, workload, preps, refs, tally, seconds, pacer)
    metrics, details = end_to_end(preps, records, tally, setup_times, workload)
    details["passes"] = passes
    details["host_speed"] = pacer.speed(pacer.starts[0], pacer.starts[-1]) if pacer.starts else None
    return metrics, details, tally


def run_traced(mtcut, workload, seed, span_path):
    preps, setup_times = timed_setup(mtcut, workload, seed, 1)
    refs = [reference(workload, prep) for prep in preps]
    tally = Tally()
    plain, _ = run_passes(mtcut, workload, preps, refs, tally, None)
    plain_e2e, _ = end_to_end(preps, plain, tally, setup_times, workload)

    tracer = Tracer()
    layers.install(tracer, mtcut)
    try:
        t0 = time.perf_counter()
        preps = setup(mtcut, workload, seed)
        traced_setup = time.perf_counter() - t0
        traced, _ = run_passes(mtcut, workload, preps, refs, tally, None)
    finally:
        tracer.restore()
    tracer.write(span_path)
    traced_e2e, details = end_to_end(preps, traced, tally, [traced_setup], workload)

    # tracing must not change what the program computes
    for name, rec in traced.items():
        tally.attempted += 1
        base = plain.get(name)
        if base is None or base.kernel_vertices != rec.kernel_vertices:
            tally.fail(name, "trace", "mismatch", "kernel differs when traced")
        elif not workload.deadline_bound and (
                base.values != rec.values or base.nodes != rec.nodes
                or base.labels != rec.labels):
            tally.fail(name, "trace", "mismatch", "solve result differs when traced")

    if not plain_e2e or not traced_e2e:
        return {}, details, tally
    work = ("kernel_s", "solve_total_s")
    before = sum(plain_e2e[m][0] for m in work)
    after = sum(traced_e2e[m][0] for m in work)
    values = layers.per_layer(tracer.summary(), details["optimal_frac"],
                              (after - before) / before)
    metrics = {name: (values[name], unit) for name, unit, _ in layers.METRICS}
    details["untraced"] = {k: v for k, (v, _) in plain_e2e.items()}
    details["traced"] = {k: v for k, (v, _) in traced_e2e.items()}
    details["moves"] = layers.MOVES
    return metrics, details, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mtcut = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, details, tally = run_traced(mtcut, workload, args.seed,
                                                    f"{stem}.spans.csv")
        else:
            metrics, details, tally = run_untraced(mtcut, workload, args.seed,
                                                      args.seconds)
    except Exception:  # noqa: BLE001 - a fault of the benchmark, not a result
        traceback.print_exc()
        return 1
    if not metrics:
        print("error: no instance was solved", file=sys.stderr)
        for failure in tally.failures[:20]:
            print(f"  {failure}", file=sys.stderr)
        return 1

    env = environment(mtcut)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "wall_s": time.perf_counter() - started,
              "environment": env, "attempted": tally.attempted,
              "failures": tally.failures, "details": details,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} attempted, {len(tally.failures)} failed")
    print("environment " + json.dumps(env))
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    if "solve_s.tail" in details:
        t = details["solve_s.tail"]
        print(f"  (solve_s.tail is p{t['percentile']:.1f} of {t['samples']} samples, "
              f"{t['samples_beyond']} beyond it)")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
