"""Property: tenant usage is exactly what the tenant owns, across
restarts.

The daemon keeps no usage counter: each tenant's stored bytes are the
mounted sizes of the images it owns.  Hypothesis draws per-tenant
quotas and a sequence of publishes, over-quota publishes, deletes and
daemon restarts over 1-3 tenants, against a durable workspace or a
two-shard federation root.  A small model predicts every outcome
(stored, or refused with ``quota-exceeded``), and after every step,
for every tenant:

* ``bytes_stored`` equals the sum of ``get_vmi_record(n).mounted_size``
  over the tenant's ``owned_names``;
* ``published`` equals their count, and the owned names are the
  model's;
* the server's ``fsck`` reply is clean.

The CI ``server-stress`` job re-runs this suite with a higher example
budget (``SERVER_PROP_EXAMPLES``).
"""

import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.repository.federation import FederatedRepository
from repro.service.protocol import make_request, scale_source
from repro.service.server import ImageServer, ServerConfig
from repro.service.tenancy import TenantQuota

#: per-test example budget; the CI server-stress job raises it to >=25
_EXAMPLES = int(os.environ.get("SERVER_PROP_EXAMPLES", "6"))

N_VMIS = 6
N_FAMILIES = 2
SEED = "tenant-usage-props"
SOURCE = scale_source(N_VMIS, n_families=N_FAMILIES, seed=SEED)

_TENANTS = ("alpha", "beta", "gamma")
_PUBLISH, _OVER_QUOTA, _DELETE, _RESTART = range(4)


def _open(kind: str, root: Path, config: ServerConfig) -> ImageServer:
    if kind == "workspace":
        return ImageServer.for_workspace(root, config)
    return ImageServer(FederatedRepository.open(root, shards=2), config)


def _call(server, op, tenant=None, **args) -> dict:
    return server.handle_message(make_request(op, tenant, **args))


def _check_usage(server, tenants, live) -> None:
    repo = server.system.repo
    for tenant in tenants:
        owned = server.tenants.owned_names(tenant)
        assert owned == sorted(live[tenant])
        usage = server.tenants.usage(tenant)
        assert usage.bytes_stored == sum(
            repo.get_vmi_record(name).mounted_size for name in owned
        )
        assert usage.published == len(owned)
    fsck = _call(server, "fsck")
    assert fsck["ok"], fsck
    assert fsck["result"]["clean"], fsck["result"]["findings"]


_QUOTAS = st.lists(
    st.one_of(st.none(), st.integers(1, 4)), min_size=1, max_size=3
)
_STEPS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from((_PUBLISH, _OVER_QUOTA, _DELETE, _RESTART)),
        st.integers(0, 1_000_000),
    ),
    min_size=1,
    max_size=16,
)


class TestUsageIsOwnership:
    @settings(max_examples=_EXAMPLES, deadline=None)
    @given(
        kind=st.sampled_from(("workspace", "federation")),
        quotas=_QUOTAS,
        steps=_STEPS,
    )
    def test_usage_matches_owned_records(
        self, scale_corpus_factory, kind, quotas, steps
    ):
        corpus = scale_corpus_factory(
            N_VMIS, n_families=N_FAMILIES, seed=SEED
        )
        sizes = [corpus.build(i).mounted_size for i in range(N_VMIS)]
        # a quota of k holds about k images of the corpus's median size
        unit = sorted(sizes)[N_VMIS // 2]
        tenants = _TENANTS[: len(quotas)]
        limits = {
            t: None if k is None else k * unit
            for t, k in zip(tenants, quotas)
        }
        config = ServerConfig(
            checkpoint_idle_s=None,
            tenants={t: TenantQuota(max_bytes=limits[t]) for t in tenants},
        )
        live = {t: {} for t in tenants}  # stored name -> corpus item
        unpublished = {t: list(range(N_VMIS)) for t in tenants}

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "root"
            server = _open(kind, root, config)
            try:
                for tenant_i, step, choice in steps:
                    tenant = tenants[tenant_i % len(tenants)]
                    pool = unpublished[tenant]
                    limit = limits[tenant]
                    used = sum(sizes[i] for i in live[tenant].values())

                    def fits(item):
                        return limit is None or used + sizes[item] <= limit

                    if step == _OVER_QUOTA:
                        # an item past the tenant's headroom, if any
                        pool = [i for i in pool if not fits(i)]
                        step = _PUBLISH if pool else _DELETE
                    if step == _DELETE and not live[tenant]:
                        step = _PUBLISH
                    if step == _PUBLISH and not pool:
                        step = _DELETE if live[tenant] else _RESTART

                    if step == _PUBLISH:
                        item = pool[choice % len(pool)]
                        response = _call(
                            server,
                            "publish",
                            tenant,
                            source=SOURCE,
                            item=item,
                        )
                        if fits(item):
                            assert response["ok"], response
                            stored = response["result"]["stored_name"]
                            live[tenant][stored] = item
                            unpublished[tenant].remove(item)
                        else:
                            assert not response["ok"]
                            assert (
                                response["error"]["code"]
                                == "quota-exceeded"
                            )
                    elif step == _DELETE:
                        stored = sorted(live[tenant])[
                            choice % len(live[tenant])
                        ]
                        _, _, name = stored.partition("/")
                        response = _call(server, "delete", tenant, name=name)
                        assert response["ok"], response
                        item = live[tenant].pop(stored)
                        assert (
                            response["result"]["credited_bytes"]
                            == sizes[item]
                        )
                        unpublished[tenant].append(item)
                    else:
                        server.stop()
                        server = _open(kind, root, config)
                    _check_usage(server, tenants, live)
            finally:
                server.stop()
