"""Bench: retrieval cost, cold sequential vs warm batch.

Publishes generated multi-family corpora (see
:mod:`repro.workloads.scale`), then serves every published VMI twice —
once through cold sequential Algorithm 3 (:meth:`~repro.core.assembler.
VMIAssembler.retrieve`, no reuse of *charges* across requests: every
request pays a cold base copy, though it shares the system's plan
cache) and once through the plan-caching batch pipeline
(:meth:`~repro.core.system.Expelliarmus.retrieve_many`, base-affine
order, starting from an emptied plan cache) — and reports, per corpus
size:

* charged simulated seconds for both paths, split out for the
  ``base-copy`` component the warm cache amortises (Figure 5a's
  dominant share for package-light VMIs);
* plan-derivation work per request (plans derived / requests): the
  batch pipeline shares plans across identical compositions within the
  first round and replays *everything* from cache on a repeat round,
  the read-heavy regime the pipeline is built for;
* wall-clock for both paths (the planner also skips real graph work).

Equivalence is asserted inline for every served VMI (install order and
assembled size); the byte-identical guarantee is pinned down by the
differential property suite in ``tests/property/test_retrieval_props.py``.

Run with ``pytest benchmarks/bench_retrieval.py`` (add ``-k smoke`` for
the CI-sized corpus).
"""

import time

import pytest

from benchmarks.conftest import attach_series, write_bench_json
from repro.core.system import Expelliarmus
from repro.experiments.reporting import ExperimentResult, Series
from repro.sim.clock import TimeBreakdown
from repro.workloads.scale import scale_corpus

#: (corpus size, OS families) — the ≥500-VMI point is the headline
SWEEP = ((125, 5), (250, 10), (500, 20))
SMOKE_SWEEP = ((40, 4), (80, 8))


def _run_one(n_vmis: int, n_families: int) -> dict:
    """Publish one corpus, retrieve it cold and warm; return metrics."""
    corpus = scale_corpus(n_vmis, n_families=n_families)
    system = Expelliarmus()
    published = system.publish_many(list(corpus.build_all()))
    assert published.n_failed == 0
    names = [r.name for r in system.repo.vmi_records()]

    # -- cold sequential: Algorithm 3 per request, cold charges --------
    t0 = time.perf_counter()
    cold_reports = {name: system.retrieve(name) for name in names}
    cold_wall = time.perf_counter() - t0
    cold = TimeBreakdown()
    for report in cold_reports.values():
        cold = cold.merged(report.breakdown)

    # -- warm batch: plan cache + base-affine ordering ------------------
    # the cold pass filled the shared plan cache; the batch derives its
    # own plans so derive/req measures the batch pipeline alone
    system.planner.clear()
    t0 = time.perf_counter()
    warm_batch = system.retrieve_many(names)
    warm_wall = time.perf_counter() - t0
    assert warm_batch.n_failed == 0

    # observational equivalence, asserted for every served VMI
    for item in warm_batch.results:
        reference = cold_reports[item.name]
        assert item.report.imported_packages == reference.imported_packages
        assert item.report.vmi.mounted_size == reference.vmi.mounted_size

    # -- repeat round: the read-heavy steady state ----------------------
    repeat_batch = system.retrieve_many(names)
    assert repeat_batch.planner_stats.plans_derived == 0

    stats = warm_batch.planner_stats
    return {
        "n_vmis": n_vmis,
        "stored_bases": len(system.repo.base_images()),
        "cold_s": cold.total,
        "warm_s": warm_batch.simulated_seconds,
        "cold_copy_s": cold.component("base-copy"),
        "warm_copy_s": warm_batch.component("base-copy"),
        "derived_per_req": stats.plans_derived / stats.requests,
        "repeat_hits": repeat_batch.plan_hits,
        "repeat_s": repeat_batch.simulated_seconds,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
    }


def _sweep(sweep) -> ExperimentResult:
    rows = []
    cold_copy, warm_copy, derived = [], [], []
    wall_warm = []
    for n_vmis, n_families in sweep:
        m = _run_one(n_vmis, n_families)
        rows.append(
            (
                m["n_vmis"],
                m["stored_bases"],
                round(m["cold_s"], 1),
                round(m["warm_s"], 1),
                round(m["cold_copy_s"], 1),
                round(m["warm_copy_s"], 1),
                round(m["derived_per_req"], 2),
                m["repeat_hits"],
                round(m["cold_wall_s"], 3),
                round(m["warm_wall_s"], 3),
            )
        )
        cold_copy.append(m["cold_copy_s"])
        warm_copy.append(m["warm_copy_s"])
        derived.append(m["derived_per_req"])
        wall_warm.append(round(m["warm_wall_s"], 4))
    return ExperimentResult(
        experiment_id="bench-retrieval",
        title="Retrieval cost, cold sequential vs warm batch",
        columns=(
            "VMIs",
            "bases",
            "cold[s]",
            "warm[s]",
            "copy(cold)",
            "copy(warm)",
            "derive/req",
            "r2 hits",
            "wall(cold)",
            "wall(warm)",
        ),
        rows=tuple(rows),
        series=(
            Series("cold-base-copy-seconds", tuple(cold_copy)),
            Series("warm-base-copy-seconds", tuple(warm_copy)),
            Series("plans-derived-per-request", tuple(derived)),
            Series("wall-warm-batch-s", tuple(wall_warm)),
        ),
        notes=(
            "cold = sequential Algorithm 3 per request; warm = "
            "base-affine batch over the plan cache; r2 hits = plans "
            "replayed on an immediately repeated batch (read-heavy "
            "steady state, zero derivations)",
            "wall-warm-batch-s = real seconds for the warm batch per "
            "sweep point (wallclock gate tier; machine-dependent)",
        ),
    )


def _assert_amortized(result: ExperimentResult) -> None:
    series = {s.label: s.values for s in result.series}
    cold_copy = series["cold-base-copy-seconds"]
    warm_copy = series["warm-base-copy-seconds"]
    derived = series["plans-derived-per-request"]
    for cold, warm in zip(cold_copy, warm_copy, strict=True):
        # the warm cache must cut charged base-copy work measurably
        assert warm < 0.5 * cold
    # plan sharing within one round: strictly fewer derivations than
    # requests (identical compositions replay), never more
    assert all(d <= 1.0 for d in derived)
    assert derived[-1] < 1.0


@pytest.mark.benchmark(group="retrieval")
def test_retrieval_sweep(benchmark, report_result):
    """The headline sweep, up to a 500-VMI corpus over 20 families."""
    result = benchmark.pedantic(
        lambda: _sweep(SWEEP), rounds=1, iterations=1
    )
    report_result(result)
    attach_series(benchmark, result)
    write_bench_json(result, "retrieval")
    _assert_amortized(result)


@pytest.mark.benchmark(group="retrieval")
def test_retrieval_smoke(benchmark, report_result):
    """CI-sized corpus: same assertions, seconds of wall clock."""
    result = benchmark.pedantic(
        lambda: _sweep(SMOKE_SWEEP), rounds=1, iterations=1
    )
    report_result(result)
    attach_series(benchmark, result)
    write_bench_json(result, "retrieval")
    _assert_amortized(result)
