"""Unit: tenant namespacing, quotas and the per-tenant slot ceiling."""

import pytest

from repro.errors import (
    AdmissionRejectedError,
    ProtocolError,
    QuotaExceededError,
    UnknownTenantError,
)
from repro.service.tenancy import (
    TenantQuota,
    TenantRegistry,
    namespaced,
    split_namespace,
    validate_image_name,
    validate_stored_name,
    validate_tenant_name,
)


class TestNames:
    @pytest.mark.parametrize(
        "name", ["acme", "a", "Tenant-1", "x" * 64, "0.dots_ok-too"]
    )
    def test_valid_names_pass_through(self, name):
        assert validate_tenant_name(name) == name

    @pytest.mark.parametrize(
        "name",
        ["", "a/b", "-leading-dash", ".dot", "x" * 65, "sp ace", None, 7],
    )
    def test_invalid_names_rejected(self, name):
        with pytest.raises(ProtocolError, match="invalid tenant"):
            validate_tenant_name(name)

    def test_namespace_round_trip(self):
        stored = namespaced("acme", "web-frontend")
        assert stored == "acme/web-frontend"
        assert split_namespace(stored) == ("acme", "web-frontend")

    def test_global_names_have_no_tenant(self):
        assert split_namespace("plain") == (None, "plain")

    def test_split_keeps_inner_separators(self):
        # only the first separator is the namespace boundary
        assert split_namespace("acme/a/b") == ("acme", "a/b")


class TestImageNameValidation:
    """Regression: separator injection through image names.

    ``namespaced("acme", "web/../../etc")``-style names used to pass
    straight through and later be misattributed by
    ``split_namespace``; the protocol boundary now refuses them.
    """

    @pytest.mark.parametrize(
        "name", ["web", "a", "web-frontend.v2", "x" * 200]
    )
    def test_plain_names_accepted(self, name):
        assert validate_image_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", None, 7, "a/b", "acme/web", "/", "a/b/c"]
    )
    def test_empty_and_separator_names_rejected(self, name):
        with pytest.raises(ProtocolError, match="invalid image name"):
            validate_image_name(name)

    def test_namespaced_rejects_separator_bearing_name(self):
        with pytest.raises(ProtocolError, match="reserved"):
            namespaced("acme", "a/b")

    @pytest.mark.parametrize("name", ["web", "acme/web", "t-1/img.v2"])
    def test_stored_names_accept_bare_and_single_prefix(self, name):
        assert validate_stored_name(name) == name

    @pytest.mark.parametrize(
        "name",
        ["", None, "a/b/c", "acme/", "/web", "-bad/web", "sp ace/x"],
    )
    def test_stored_names_reject_ambiguous_shapes(self, name):
        with pytest.raises(ProtocolError):
            validate_stored_name(name)


class TestQuotaValidation:
    def test_defaults_are_unlimited(self):
        quota = TenantQuota()
        assert quota.max_bytes is None
        assert quota.max_inflight is None

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            TenantQuota(max_bytes=-1)

    def test_zero_inflight_rejected(self):
        with pytest.raises(ValueError, match="max_inflight"):
            TenantQuota(max_inflight=0)


class TestByteAccounting:
    def test_charge_then_credit_returns_to_zero(self):
        registry = TenantRegistry(
            default_quota=TenantQuota(max_bytes=1000)
        )
        registry.check_quota("acme", 600)
        registry.record_owned("acme", "acme/web", 600)
        usage = registry.usage("acme")
        assert usage.bytes_stored == 600
        assert usage.published == 1
        registry.forget_owned("acme", "acme/web")
        usage = registry.usage("acme")
        assert usage.bytes_stored == 0
        assert usage.published == 0

    def test_charge_past_limit_rejected_with_arithmetic(self):
        registry = TenantRegistry(
            default_quota=TenantQuota(max_bytes=1000)
        )
        registry.record_owned("acme", "acme/web", 800)
        with pytest.raises(QuotaExceededError) as excinfo:
            registry.check_quota("acme", 300)
        exc = excinfo.value
        assert exc.tenant == "acme"
        assert exc.requested_bytes == 300
        assert exc.used_bytes == 800
        assert exc.limit_bytes == 1000
        # the failed check charged nothing, and was counted
        usage = registry.usage("acme")
        assert usage.bytes_stored == 800
        assert usage.quota_rejections == 1

    def test_exact_fit_is_allowed(self):
        registry = TenantRegistry(
            default_quota=TenantQuota(max_bytes=1000)
        )
        registry.check_quota("acme", 1000)
        registry.record_owned("acme", "acme/web", 1000)
        assert registry.usage("acme").bytes_stored == 1000

    def test_check_alone_charges_nothing(self):
        registry = TenantRegistry()
        registry.check_quota("acme", 500)
        usage = registry.usage("acme")
        assert usage.bytes_stored == 0
        assert usage.published == 0

    def test_quotas_are_per_tenant(self):
        registry = TenantRegistry(
            default_quota=TenantQuota(max_bytes=100)
        )
        registry.record_owned("a", "a/web", 100)
        registry.check_quota("b", 100)  # b's quota is its own
        with pytest.raises(QuotaExceededError):
            registry.check_quota("a", 1)


class TestInflightSlots:
    def test_slot_ceiling_rejects_with_tenant_busy(self):
        registry = TenantRegistry(
            default_quota=TenantQuota(max_inflight=2)
        )
        with registry.slot("acme"), registry.slot("acme"):
            with pytest.raises(AdmissionRejectedError) as excinfo:
                with registry.slot("acme"):
                    pass
            assert excinfo.value.code == "tenant-busy"
            assert excinfo.value.tenant == "acme"
        # slots released: admits again
        with registry.slot("acme"):
            pass
        usage = registry.usage("acme")
        assert usage.inflight == 0
        assert usage.busy_rejections == 1
        assert usage.requests == 3

    def test_slots_are_per_tenant(self):
        registry = TenantRegistry(
            default_quota=TenantQuota(max_inflight=1)
        )
        with registry.slot("a"):
            with registry.slot("b"):
                pass

    def test_unlimited_inflight_by_default(self):
        registry = TenantRegistry()
        with registry.slot("acme"), registry.slot("acme"):
            assert registry.usage("acme").inflight == 2


class TestRegistryModes:
    def test_open_registry_auto_registers(self):
        registry = TenantRegistry()
        assert registry.known_tenants() == []
        registry.check_quota("new-tenant", 1)
        assert registry.known_tenants() == ["new-tenant"]

    def test_strict_registry_refuses_unknown(self):
        registry = TenantRegistry(
            tenants={"acme": TenantQuota()}, strict=True
        )
        registry.check_quota("acme", 1)
        with pytest.raises(UnknownTenantError):
            registry.check_quota("ghost", 1)

    def test_strict_without_tenants_is_an_error(self):
        with pytest.raises(ValueError, match="strict"):
            TenantRegistry(strict=True)

    def test_preregistered_quota_wins_over_default(self):
        registry = TenantRegistry(
            default_quota=TenantQuota(max_bytes=10),
            tenants={"big": TenantQuota(max_bytes=1000)},
        )
        registry.check_quota("big", 500)
        with pytest.raises(QuotaExceededError):
            registry.check_quota("other", 500)

    def test_invalid_preregistered_name_rejected(self):
        with pytest.raises(ProtocolError):
            TenantRegistry(tenants={"a/b": TenantQuota()})

    def test_invalid_name_rejected_on_use(self):
        registry = TenantRegistry()
        with pytest.raises(ProtocolError):
            registry.check_quota("no/slashes", 1)

    def test_usages_snapshots_every_tenant(self):
        registry = TenantRegistry()
        registry.record_owned("a", "a/web", 10)
        registry.record_owned("b", "b/web", 20)
        usages = registry.usages()
        assert set(usages) == {"a", "b"}
        assert usages["b"].bytes_stored == 20


class TestReadOnlyReporting:
    def test_usage_does_not_register_unknown_tenants(self):
        """Regression: ``usage()`` for a never-seen name used to
        auto-register it; a typo'd stats query polluted the registry
        permanently."""
        registry = TenantRegistry()
        registry.check_quota("real", 1)
        with pytest.raises(UnknownTenantError):
            registry.usage("typo-tenant")
        assert registry.known_tenants() == ["real"]
        assert set(registry.usages()) == {"real"}

    def test_usage_still_validates_known_tenants(self):
        registry = TenantRegistry()
        registry.record_owned("acme", "acme/web", 42)
        assert registry.usage("acme").bytes_stored == 42


class TestOwnership:
    def test_owns_only_after_record(self):
        registry = TenantRegistry()
        assert not registry.owns("acme", "acme/web")
        registry.record_owned("acme", "acme/web", 1)
        assert registry.owns("acme", "acme/web")
        assert registry.owned_names("acme") == ["acme/web"]

    def test_prefix_match_alone_grants_nothing(self):
        # a stored name with the tenant's prefix that the tenant never
        # published (e.g. a locally-published literal "acme/web") is
        # NOT owned
        registry = TenantRegistry()
        registry.check_quota("acme", 1)
        assert not registry.owns("acme", "acme/web")

    def test_owns_is_read_only_for_unknown_tenants(self):
        registry = TenantRegistry()
        assert not registry.owns("ghost", "ghost/x")
        assert registry.owned_names("ghost") == []
        assert registry.known_tenants() == []

    def test_forget_owned_drops_the_name(self):
        registry = TenantRegistry()
        registry.record_owned("acme", "acme/web", 1)
        registry.forget_owned("acme", "acme/web")
        assert not registry.owns("acme", "acme/web")
        registry.forget_owned("acme", "never-owned")  # no-op

    def test_owners_dumps_every_owned_name(self):
        registry = TenantRegistry()
        registry.record_owned("acme", "acme/web", 1)
        registry.record_owned("acme", "acme/db", 2)
        registry.record_owned("beta", "beta/web", 3)
        assert registry.owners() == {
            "acme/web": "acme",
            "acme/db": "acme",
            "beta/web": "beta",
        }
