"""Self-tests of the benchmark: oracles, result checks and the tracer.

Run with ``python -m pytest perfbench``. They use a few small instances
and take seconds, not the benchmark's minutes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import instances
import layers
import oracles
import pace
import run
from tracer import Tracer

mtcut = run.load_program()


def _small(oracle: str, specs) -> run.Workload:
    return run.Workload(specs, 1, oracle, lambda kt: 30.0)


def _program_attributes() -> dict:
    """Every attribute of every mtcut module and of the wrapped classes."""
    snap = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "mtcut" or name.startswith("mtcut.")}
    snap["Problem"] = dict(vars(mtcut.graph.Problem))
    snap["BoundState"] = dict(vars(mtcut.graph.BoundState))
    return snap


def test_oracles_agree_on_small_instances():
    for spec in instances.oracle_specs(7, count=25):
        fixed = {t: i for i, t in enumerate(spec.terminals)}
        opt = oracles.brute_force(spec.n, spec.edges, spec.terminals)
        assert oracles.milp_optimum(range(spec.n), spec.edges, fixed, spec.k) == opt
        assert oracles.isolating_lower_bound(range(spec.n), spec.edges, spec.terminals) <= opt


def test_score_rejects_infeasible_labels():
    spec = instances.oracle_specs(3, count=1)[0]
    labels = [0] * spec.n
    for i, t in enumerate(spec.terminals):
        labels[t] = i
    value, why = oracles.score(spec.n, spec.edges, spec.terminals, labels)
    assert why is None
    assert value == sum(w for u, v, w in spec.edges if labels[u] != labels[v])
    swapped = list(labels)
    swapped[spec.terminals[1]] = 0
    out_of_range = list(labels)
    out_of_range[next(v for v in range(spec.n) if v not in spec.terminals)] = spec.k
    for bad in (swapped, out_of_range, labels[:-1]):
        assert oracles.score(spec.n, spec.edges, spec.terminals, bad)[1] is not None


def test_quantiles():
    assert run.quantile([4.0, 1.0, 7.0], 0.5) == pytest.approx(4.0)
    value, percentile, beyond = run.tail([float(x) for x in range(1, 101)])
    assert (percentile, beyond) == (pytest.approx(90.0), 10)
    assert 89.0 < value < 92.0
    assert run.tail([float(x) for x in range(500)])[1:] == (pytest.approx(90.0), 50)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_grown_copies_keep_structure():
    specs = instances.grown_specs(5, base_count=2, copies=2)
    again = instances.grown_specs(5, base_count=2, copies=2)
    assert [s.edges for s in specs] == [s.edges for s in again]
    for spec in specs:
        back = sorted((min(spec.relabel[u], spec.relabel[v]),
                       max(spec.relabel[u], spec.relabel[v]), w)
                      for u, v, w in spec.placement_edges)
        assert back == spec.edges


def test_traced_run_matches_untraced_and_restores():
    before = _program_attributes()
    workload = _small("milp", lambda seed: instances.grown_specs(seed, base_count=3, copies=1))
    preps = run.setup(mtcut, workload, 11)
    refs = [run.reference(workload, prep) for prep in preps]
    tally = run.Tally()
    plain, _ = run.run_passes(mtcut, workload, preps, refs, tally, None)

    tracer = Tracer()
    layers.install(tracer, mtcut)
    try:
        traced, _ = run.run_passes(mtcut, workload, preps, refs, tally, None)
    finally:
        tracer.restore()

    assert _program_attributes() == before
    assert tally.failures == []
    for name, rec in plain.items():
        assert (rec.values, rec.labels, rec.nodes) == \
            (traced[name].values, traced[name].labels, traced[name].nodes)
    summary = tracer.summary()
    assert summary["solver.solve"]["calls"] == len(preps)
    # only the program's own copies are traced, never the benchmark's
    copies = [parent for _, parent, name, *_ in tracer.spans if name == "graph.problem_copy"]
    assert copies and all(parent >= 0 for parent in copies)
    assert summary["reductions.loop"]["calls"] >= 2 * len(preps)
    values = layers.per_layer(summary, 1.0, 0.0)
    assert [name for name, _, _ in layers.METRICS] == list(values)


def test_pacer_scales_by_the_probes_around_an_interval():
    pacer = pace.Pacer()
    ref = pace.REF_PROBE_S
    # a probe every 0.02 s: at twice the reference speed for a second, then at it
    pacer.starts = [i * 0.02 for i in range(100)]
    pacer.durations = [ref / 2] * 50 + [ref] * 50
    assert pacer.speed(0.3, 0.5) == pytest.approx(2.0)
    assert pacer.speed(1.5, 1.7) == pytest.approx(1.0)
    inside = sum(ref / 2 for t in pacer.starts if 0.3 <= t < 0.5)
    assert pacer.probe_seconds(0.3, 0.5) == pytest.approx(inside)
    assert pacer.seconds(0.3, 0.5) == pytest.approx((0.2 - inside) * 2.0)
    # an interval far from every probe is judged by the nearest ones
    assert pacer.speed(5.0, 5.1) == pytest.approx(1.0)
    assert pace.Pacer().seconds(1.0, 1.5) == pytest.approx(0.5)


def test_pacer_probes_while_installed_and_restores():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer() as pacer:
        t0 = time.perf_counter()
        while time.perf_counter() < t0 + 0.3:
            pace.probe(1)
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pacer.starts) >= 5
    assert 0 < pacer.probe_seconds(t0, t1) < t1 - t0
    assert pacer.seconds(t0, t1) > 0


def test_a_raising_solve_is_counted_and_the_run_goes_on(monkeypatch):
    workload = _small("enumeration", lambda seed: instances.oracle_specs(seed, count=3))
    preps = run.setup(mtcut, workload, 2)
    refs = [run.reference(workload, prep) for prep in preps]
    real = mtcut.solver.solve_prepared
    calls = []

    def flaky(problem, config):
        calls.append(1)
        if len(calls) == 2:
            raise mtcut.graph.GraphError("vertex 7 is not live")
        return real(problem, config)

    monkeypatch.setattr(mtcut.solver, "solve_prepared", flaky)
    tally = run.Tally()
    records, _ = run.run_passes(mtcut, workload, preps, refs, tally, None)
    assert len(calls) == 3
    assert [(f["stage"], f["kind"]) for f in tally.failures] == [("solve", "GraphError")]
    assert tally.attempted == 6
    assert sum(1 for r in records.values() if r.solve_s) == 2


def test_metrics_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert sorted(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) \
        == sorted(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS
    workload = _small("enumeration", lambda seed: instances.oracle_specs(seed, count=10))
    metrics, _, tally = run.run_untraced(mtcut, workload, 4, None)
    assert tally.failures == []
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle-small",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
