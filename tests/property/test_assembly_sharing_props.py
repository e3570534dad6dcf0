"""Properties: retrieval from shared parts ≡ the Algorithm 3 oracle,
charge for charge.

The planner builds from parts it shares across requests (DESIGN.md §9,
"Assembled once"): a first-boot image per stored base, a template per
plan and data label that records the charges its build made, and
immutable installed rows shared by every clone.  None of that may be
observable.  Every retrieval here — plan hit or miss, template clone or
build, warm or ``cold_base=True`` — is compared with the paper-literal
oracle in ``tests/algorithm3_oracle.py`` on:

* the assembled manifest digest;
* the installed rows as ordered ``(name, role, auto)``;
* the imported package names;
* the breakdown's labels in insertion order, with bit-identical values;
* the ``clock.now`` delta, bit for bit.

The oracle charges a private clock; it is given one that starts at the
system clock's ``now`` and keeps every charge in order, so the expected
delta is the same float additions the planner must make.  The oracle
always charges a cold base copy: where the planner served the copy warm
(its ``base_cache_hits`` counter moved), the expected first charge is
the warm clone's instead.  Failures must raise the same type and
message with the same ``clock.now``.

CI raises the example budget with ``RETRIEVAL_PROP_EXAMPLES``.
"""

import os
from contextlib import contextmanager

import algorithm3_oracle
import pytest
from algorithm3_oracle import reference_assemble
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly_plan import RetrievalRequest
from repro.core.system import Expelliarmus
from repro.sim.clock import SimulatedClock

#: example budget override; unset, each test keeps its own default
_BUDGET = os.environ.get("RETRIEVAL_PROP_EXAMPLES")


def _examples(default: int) -> int:
    return int(_BUDGET) if _BUDGET else default


class _TapeClock(SimulatedClock):
    """A clock that starts at ``start`` and keeps every charge in
    order."""

    def __init__(self, start: float) -> None:
        super().__init__()
        self._now = start
        self.tape: list[tuple[float, str]] = []

    def advance(self, seconds: float, label: str = "other") -> None:
        super().advance(seconds, label)
        self.tape.append((seconds, label))


@contextmanager
def _oracle_clock(start: float):
    """Make the oracle charge one :class:`_TapeClock` from ``start``."""
    clock = _TapeClock(start)
    saved = algorithm3_oracle.SimulatedClock
    algorithm3_oracle.SimulatedClock = lambda: clock
    try:
        yield clock
    finally:
        algorithm3_oracle.SimulatedClock = saved


def _observe(report):
    vmi = report.vmi
    return (
        vmi.manifest_digest(),
        [(r.name, r.role, r.auto) for r in vmi.installed_packages()],
        report.imported_packages,
        [(label, value.hex()) for label, value in report.breakdown.totals.items()],
    )


def _outcome(call):
    try:
        return _observe(call()), None
    except Exception as exc:  # compared, never swallowed
        return None, (type(exc), str(exc))


def _expected_charges(system, request, tape, warm):
    """The oracle's charges, its base copy made warm when the planner's
    was."""
    charges = list(tape)
    if warm:
        assert charges[0][1] == "base-copy"
        size = system.repo.base_image_size(request.base_key)
        charges[0] = (system.cost.base_cache_clone(size), "base-copy")
    return charges


def assert_planner_matches_oracle(system, request, *, cold_base):
    """One planner retrieval against the oracle at the same point."""
    planner, clock = system.planner, system.clock
    start = clock.now
    with _oracle_clock(start) as oracle_clock:
        expected, expected_error = _outcome(
            lambda: reference_assemble(
                system,
                request.name,
                request.base_key,
                request.primary_names,
                request.data_label,
                dict(request.primary_versions),
            )
        )
    hits_before = planner.stats.base_cache_hits
    got, got_error = _outcome(
        lambda: planner.assemble(request, cold_base=cold_base).report
    )
    warm = planner.stats.base_cache_hits != hits_before
    assert not (cold_base and warm)
    charges = _expected_charges(system, request, oracle_clock.tape, warm)
    now = start
    totals: dict[str, float] = {}
    for seconds, label in charges:
        now += seconds
        totals[label] = totals.get(label, 0.0) + seconds
    assert got_error == expected_error
    assert clock.now.hex() == now.hex()
    if expected_error is None:
        assert got[:3] == expected[:3]
        assert got[3] == [(k, v.hex()) for k, v in totals.items()]
    assert len(planner._base_records) <= len(system.repo.base_images())


#: corpus flavours: ``fat`` publishes replace stored bases; ``split``
#: leaves two base generations that re-base merges
_REGIMES = {
    "fat": {"seed": "sharing-fat", "fat_base_pct": 30},
    "split": {
        "seed": "sharing-split",
        "fat_base_pct": 0,
        "split_base_pct": 50,
    },
}
_N_VMIS = 10

#: mutations between retrievals; publishes weighted double
_STEPS = st.lists(
    st.tuples(
        st.sampled_from(["publish", "publish", "delete", "gc", "rebase"]),
        st.integers(0, _N_VMIS - 1),
    ),
    min_size=1,
    max_size=25,
)


class TestSharedPartsMatchOracle:
    @settings(max_examples=_examples(8), deadline=None)
    @given(data=st.data())
    def test_retrievals_interleaved_with_mutations(
        self, scale_corpus_factory, data
    ):
        regime = data.draw(st.sampled_from(sorted(_REGIMES)), label="regime")
        corpus = scale_corpus_factory(_N_VMIS, n_families=1, **_REGIMES[regime])
        system = Expelliarmus()
        names = [corpus.spec(i).name for i in range(_N_VMIS)]
        primaries = sorted({
            p for i in range(_N_VMIS) for p in corpus.spec(i).primaries
        })
        published: set[str] = set()
        for op, index in data.draw(_STEPS, label="steps"):
            name = names[index]
            if op == "publish" and name not in published:
                system.publish(corpus.build(index))
                published.add(name)
            elif op == "delete" and name in published:
                system.delete(name)
                published.discard(name)
            elif op == "gc":
                system.garbage_collect()
            elif op == "rebase":
                system.rebase()
            if published:
                # twice: a build (or a hit) and then, mostly, a hit
                # on the template the first one left
                probe = data.draw(
                    st.sampled_from(sorted(published)), label="probe"
                )
                request = RetrievalRequest.for_record(
                    system.repo.get_vmi_record(probe)
                )
                for _ in range(2):
                    assert_planner_matches_oracle(
                        system, request,
                        cold_base=data.draw(st.booleans(), label="cold"),
                    )
            bases = [b.blob_key() for b in system.repo.base_images()]
            if bases:
                labels = [None, *system.repo.user_data_labels()]
                custom = RetrievalRequest(
                    name="custom",
                    base_key=data.draw(st.sampled_from(bases), label="base"),
                    primary_names=tuple(data.draw(
                        st.lists(
                            st.sampled_from(primaries),
                            max_size=2,
                            unique=True,
                        ),
                        label="primaries",
                    )),
                    data_label=data.draw(
                        st.sampled_from(labels), label="data"
                    ),
                )
                for _ in range(2):
                    assert_planner_matches_oracle(
                        system, custom,
                        cold_base=data.draw(st.booleans(), label="cold"),
                    )


def _served(scale_corpus_factory):
    """A published store whose every plan holds a template."""
    corpus = scale_corpus_factory(8, n_families=2, seed="sharing-failures")
    system = Expelliarmus()
    for index in range(8):
        system.publish(corpus.build(index))
    requests = [
        RetrievalRequest.for_record(record)
        for record in system.repo.vmi_records()
    ]
    for request in requests:
        for cold_base in (True, False):
            assert_planner_matches_oracle(system, request, cold_base=cold_base)
    assert system.planner.n_assembled == len(requests)
    return system, requests


class TestFailuresMatchOracle:
    @pytest.mark.parametrize("cold_base", [True, False])
    def test_step_package_removed_out_of_band(
        self, scale_corpus_factory, cold_base
    ):
        system, requests = _served(scale_corpus_factory)
        request = max(
            requests,
            key=lambda r: len(system.planner.plan_for(r)[0].installs),
        )
        installs = system.planner.plan_for(request)[0].installs
        assert len(installs) >= 2
        system.repo.remove_package(installs[len(installs) // 2].blob_key)
        assert_planner_matches_oracle(system, request, cold_base=cold_base)
        assert_planner_matches_oracle(system, request, cold_base=cold_base)

    @pytest.mark.parametrize("cold_base", [True, False])
    def test_data_label_deleted_while_its_template_is_held(
        self, scale_corpus_factory, cold_base
    ):
        system, requests = _served(scale_corpus_factory)
        request = next(r for r in requests if r.data_label is not None)
        system.repo.remove_user_data(request.data_label)
        hits = system.planner.stats.plan_hits
        assert_planner_matches_oracle(system, request, cold_base=cold_base)
        assert system.planner.stats.plan_hits == hits + 1

    @pytest.mark.parametrize("cold_base", [True, False])
    def test_base_removed_and_stored_again(
        self, scale_corpus_factory, cold_base
    ):
        system, requests = _served(scale_corpus_factory)
        request = requests[0]
        base = system.repo.remove_base_image(request.base_key)
        system.repo.store_base_image(base)
        assert_planner_matches_oracle(system, request, cold_base=cold_base)
        for other in requests[1:]:
            assert_planner_matches_oracle(system, other, cold_base=cold_base)
