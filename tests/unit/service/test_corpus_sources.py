"""Unit: corpus selection, the one ``(source, items)`` rule shared by
the server, the CLI's local mode and its remote mode."""

import pytest

from repro.core.system import Expelliarmus
from repro.errors import ProtocolError
from repro.service.protocol import (
    build_item,
    make_request,
    open_corpus,
    select_corpus,
    source_config,
)
from repro.service.server import ImageServer
from repro.workloads.scale import scale_corpus
from repro.workloads.vmi_specs import TABLE_II_ORDER


class TestSelectCorpus:
    def test_table2_defaults_to_every_image(self):
        source, items = select_corpus()
        assert source == {"kind": "table2"}
        assert items == list(TABLE_II_ORDER)

    def test_unknown_table2_name_is_refused(self):
        with pytest.raises(ProtocolError, match="Bogus"):
            select_corpus(["Mini", "Bogus"])

    def test_scale_items_are_indices(self):
        source, items = select_corpus(["ignored"], 5, n_families=2)
        assert items == [0, 1, 2, 3, 4]
        assert "split_pct" not in source

    @pytest.mark.parametrize("n_vmis", [0, -3])
    def test_bad_scale_is_refused(self, n_vmis):
        with pytest.raises(ProtocolError, match="n_vmis must be positive"):
            select_corpus(n_vmis=n_vmis)


class TestSplitRegime:
    """``--split-pct`` travels inside the source, so the server builds
    the same split corpus a local run does."""

    KW = dict(n_families=2, seed="split-src", split_pct=50)

    def test_split_source_builds_the_local_corpus(self):
        source, items = select_corpus(n_vmis=10, **self.KW)
        config = source_config(source)
        assert (config.split_base_pct, config.fat_base_pct) == (50, 0)
        local = scale_corpus(
            10, n_families=2, seed="split-src",
            split_base_pct=50, fat_base_pct=0,
        )
        corpus = open_corpus(config)
        assert corpus.legacy_names() == local.legacy_names()
        for item in items:
            built, expected = build_item(corpus, item), local.build(item)
            assert built.name == expected.name
            assert built.mounted_size == expected.mounted_size

    def test_server_publishes_the_split_corpus(self):
        source, items = select_corpus(n_vmis=4, **self.KW)
        server = ImageServer(Expelliarmus())
        reply = server.handle_message(
            make_request("publish-many", "acme", source=source, items=items)
        )
        assert reply["ok"], reply
        local = open_corpus(source_config(source))
        assert [r["charged_bytes"] for r in reply["result"]["results"]] == [
            local.build(i).mounted_size for i in items
        ]
