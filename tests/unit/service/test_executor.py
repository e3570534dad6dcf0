"""Unit coverage of the one batch executor and the contract every front
inherits from it: caller positions, caller order, per-item locking,
shards run inline on the calling thread, and the commit scope."""

import sys
import threading
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.core.system import Expelliarmus
from repro.errors import PublishError, ReproError
from repro.repository.federation import FederatedRepository
from repro.repository.locking import RepositoryLock
from repro.service.executor import Job, Progress, route, run_batch
from repro.service.parallel import plan_shards
from repro.service.retrieval import resolve_request

#: every batch front: (label, system factory, batch keyword arguments)
FRONTS = [
    ("sequential", Expelliarmus, {}),
    ("parallel-2", Expelliarmus, {"parallelism": 2}),
    ("federated-2", lambda: FederatedRepository(shards=2), {}),
    ("federated-3", lambda: FederatedRepository(shards=3), {}),
]


def _front_params():
    return [pytest.param(make, kwargs, id=label) for label, make, kwargs in FRONTS]


@pytest.fixture
def reversed_vmis(scale_corpus_factory):
    corpus = scale_corpus_factory(24, n_families=3)
    return [corpus.build(i) for i in reversed(range(24))]


class TestCallerPositions:
    """Regression: a sequential publish reported execution indices
    after the dedup sort, and the federation remapped shard results as
    if they were caller indices."""

    @pytest.mark.parametrize("make, kwargs", _front_params())
    def test_publish_positions_index_the_callers_sequence(
        self, reversed_vmis, make, kwargs
    ):
        report = make().publish_many(reversed_vmis, **kwargs)
        assert report.n_published == 24
        assert [r.position for r in report.results] == list(range(24))
        assert [r.name for r in report.results] == [
            v.name for v in reversed_vmis
        ]

    @pytest.mark.parametrize("make, kwargs", _front_params())
    def test_retrieve_positions_index_the_callers_sequence(
        self, reversed_vmis, make, kwargs
    ):
        system = make()
        names = [v.name for v in reversed_vmis]
        assert system.publish_many(reversed_vmis, **kwargs).n_failed == 0
        batch = names[:12] + ["ghost"] + names[12:]
        report = system.retrieve_many(batch, **kwargs)
        assert [r.position for r in report.results] == list(range(25))
        assert [r.name for r in report.results] == batch
        assert [r.ok for r in report.results] == [
            name != "ghost" for name in batch
        ]

    @pytest.mark.parametrize("make, kwargs", _front_params())
    def test_progress_positions_index_the_callers_sequence(
        self, reversed_vmis, make, kwargs
    ):
        names = [v.name for v in reversed_vmis]
        seen = []
        lock = threading.Lock()

        def progress(done, total, item):
            with lock:
                seen.append((item.position, item.name))

        system = make()
        system.publish_many(reversed_vmis, progress=progress, **kwargs)
        system.retrieve_many(names, progress=progress, **kwargs)
        assert len(seen) == 48
        assert all(names[position] == name for position, name in seen)


class TestSequentialReport:
    def test_sequential_run_has_no_shards_and_renders_unchanged(
        self, reversed_vmis
    ):
        report = Expelliarmus().publish_many(reversed_vmis)
        assert report.shards == ()
        assert report.parallelism == 1
        assert report.critical_path_seconds == report.simulated_seconds
        assert "parallel:" not in report.render()


class TestLocking:
    def test_sequential_publishes_hold_the_write_lock(self, reversed_vmis):
        system = Expelliarmus()
        publish = system.publisher.publish
        held = []

        def observed(vmi):
            held.append(system.repo.lock.write_held)
            return publish(vmi)

        system.publisher.publish = observed
        system.publish_many(reversed_vmis[:4])
        assert held == [True] * 4

    def test_sequential_retrievals_hold_the_read_lock(self, reversed_vmis):
        system = Expelliarmus()
        system.publish_many(reversed_vmis[:4])
        assemble = system.planner.assemble
        readers = []

        def observed(request):
            readers.append(system.repo.lock.active_readers)
            return assemble(request)

        system.planner.assemble = observed
        system.retrieve_many([v.name for v in reversed_vmis[:4]])
        assert readers == [1] * 4


class _Repo:
    """Just enough repository for the executor: a lock and a commit
    scope that counts how often it is entered."""

    def __init__(self):
        self.lock = RepositoryLock()
        self.scopes = 0

    @contextmanager
    def metadata_batch(self):
        self.scopes += 1
        yield


def _result(position, ok, thread):
    """A result charging one simulated second."""
    return SimpleNamespace(
        position=position,
        ok=ok,
        thread=thread,
        report=SimpleNamespace(breakdown=SimpleNamespace(total=1.0)),
    )


def _job(repos, *, write=True, failing=()):
    def run(shard, position, payload):
        if payload in failing:
            raise PublishError(f"{payload} fails")
        return _result(position, True, threading.get_ident())

    return Job(
        repo=lambda shard: repos[shard],
        run=run,
        fail=lambda position, payload, error: _result(position, False, None),
        write=write,
    )


def _run(shards, job, *, on_error="continue", progress=None, key=None):
    """``run_batch`` over explicit shards of ``(position, name)`` pairs;
    a name ``ghost`` fails before partitioning."""

    def place(pair):
        if pair[1] == "ghost":
            raise ReproError("unknown")
        return pair

    items = sorted(
        (position, (index, name))
        for index, shard in enumerate(shards)
        for position, name in shard
    )
    return run_batch(
        items, job, place=place, n_shards=len(shards), key=key,
        on_error=on_error, progress=progress,
    )


class TestRunBatch:
    def test_one_busy_shard_runs_inline_in_one_commit_scope(self):
        repo = _Repo()
        results, accounts, _ = _run([[(1, "b"), (0, "a")], []], _job([repo, repo]))
        assert [r.position for r in results] == [0, 1]
        assert {r.thread for r in results} == {threading.get_ident()}
        assert repo.scopes == 1
        assert [a.n_items for a in accounts] == [2, 0]

    def test_shards_sharing_a_repository_commit_once_per_busy_shard(self):
        repo = _Repo()
        results, _, _ = _run(
            [[(0, "a")], [(1, "b"), (2, "c")], []], _job([repo, repo, repo])
        )
        assert repo.scopes == 2
        assert {r.thread for r in results} == {threading.get_ident()}

    def test_shards_on_their_own_repositories_commit_once_each(self):
        repos = [_Repo(), _Repo()]
        _run([[(0, "a")], [(1, "b")]], _job(repos))
        assert [r.scopes for r in repos] == [1, 1]

    def test_reads_open_no_commit_scope(self):
        repo = _Repo()
        _run([[(0, "a")]], _job([repo], write=False))
        assert repo.scopes == 0

    def test_failures_are_isolated_and_merged_in_caller_order(self):
        repo = _Repo()
        results, accounts, executed = _run(
            [[(3, "c"), (0, "a"), (1, "ghost")], [(2, "d")]],
            _job([repo, repo], failing={"a"}),
        )
        assert [(r.position, r.ok) for r in results] == [
            (0, False), (1, False), (2, True), (3, True)
        ]
        assert [(a.n_failed, a.simulated_seconds) for a in accounts] == [
            (1, 1.0), (0, 1.0)
        ]
        # shard by shard, each in its given order; the unplaced item
        # never ran
        assert [r.position for r in executed] == [0, 3, 2]

    def test_key_orders_each_shard_stably(self):
        repo = _Repo()
        _, _, executed = _run(
            [[(0, "b"), (1, "a"), (2, "b")]], _job([repo]), key=lambda p: p
        )
        assert [r.position for r in executed] == [1, 0, 2]

    def test_raise_policy_stops_before_later_items_and_shards(self):
        repo = _Repo()
        inner = _job([repo, repo], failing={"b"})
        ran = []

        def run(shard, position, payload):
            ran.append(payload)
            return inner.run(shard, position, payload)

        with pytest.raises(PublishError):
            _run(
                [[(0, "a"), (1, "b"), (2, "c")], [(3, "d")]],
                inner._replace(run=run), on_error="raise",
            )
        assert ran == ["a", "b"]

    def test_raise_policy_propagates_the_item_error(self):
        repo = _Repo()
        with pytest.raises(PublishError):
            _run(
                [[(0, "a")], [(1, "b")]],
                _job([repo, repo], failing={"a"}),
                on_error="raise",
            )

    def test_progress_counts_every_item_once(self):
        repo = _Repo()
        seen = []
        _run(
            [[(0, "a"), (2, "c"), (3, "ghost")], [(1, "b")]],
            _job([repo, repo], failing={"c"}),
            progress=lambda done, total, item: seen.append((done, total)),
        )
        assert sorted(seen) == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_progress_stays_exact_under_thread_churn(self):
        """More shards than cores and a tiny switch interval: a lost
        update in the done-count would repeat or skip a count."""
        repos = [_Repo() for _ in range(8)]
        shards = [[(s * 50 + i, f"v{i}") for i in range(50)] for s in range(8)]
        seen = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results, _, _ = _run(
                shards, _job(repos),
                progress=lambda done, total, item: seen.append(done),
            )
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(1, 401))
        assert [r.position for r in results] == list(range(400))


class TestModelledParallelism:
    """``parallelism=N`` means N modelled workers: every item runs on
    the calling thread, and the report still accounts N shards."""

    @staticmethod
    def _assert_accounts(report, shards):
        """One account per planned shard, each the sum of its items'
        own charged seconds; the critical path is the slowest."""
        expected = [
            sum(report.results[position].report.breakdown.total
                for position, _ in shard)
            for shard in shards
        ]
        assert len(report.shards) == len(shards)
        assert [a.n_items for a in report.shards] == [len(s) for s in shards]
        assert [a.simulated_seconds for a in report.shards] == pytest.approx(
            expected
        )
        assert report.critical_path_seconds == pytest.approx(max(expected))
        assert report.simulated_seconds == pytest.approx(sum(expected))

    def test_parallel_batches_run_on_the_calling_thread(self, reversed_vmis):
        system = Expelliarmus()
        threads = []
        publish, assemble = system.publisher.publish, system.planner.assemble

        def on_publish(vmi):
            threads.append(threading.get_ident())
            return publish(vmi)

        def on_assemble(request):
            threads.append(threading.get_ident())
            return assemble(request)

        system.publisher.publish = on_publish
        system.planner.assemble = on_assemble
        names = [v.name for v in reversed_vmis]
        published = system.publish_many(reversed_vmis, parallelism=4)
        retrieved = system.retrieve_many(names, parallelism=4)
        assert threads == [threading.get_ident()] * 48
        self._assert_accounts(published, plan_shards(
            list(enumerate(reversed_vmis)), 4,
            lambda pv: pv[1].base.attrs.key(),
        ))
        requests = [resolve_request(system.repo, name) for name in names]
        self._assert_accounts(retrieved, plan_shards(
            list(enumerate(requests)), 4, lambda pr: pr[1].base_key
        ))


class TestRoute:
    def test_places_items_and_records_failures(self):
        seen = []

        def place(name):
            if name == "ghost":
                raise ReproError("unknown")
            return len(name) % 2, name.upper()

        shards, failed = route(
            enumerate(["ab", "ghost", "c"]),
            place,
            lambda pos, name, error: (pos, name, error),
            2,
            on_error="continue",
            progress=Progress(lambda *args: seen.append(args), 3),
        )
        assert shards == [[(0, "AB")], [(2, "C")]]
        assert failed == [(1, "ghost", "unknown")]
        assert seen == [(1, 3, (1, "ghost", "unknown"))]

    def test_raise_policy_propagates(self):
        def place(name):
            raise ReproError("unknown")

        with pytest.raises(ReproError):
            route(
                enumerate(["x"]), place, None, 1,
                on_error="raise", progress=Progress(None, 1),
            )

