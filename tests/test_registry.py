"""Tests for the dataset registry."""

import hashlib

import pytest

from repro.core.events import Event
from repro.datasets import registry
from repro.datasets.registry import (
    DATASETS,
    MESSAGE_NETWORKS,
    dataset_names,
    get_dataset,
    get_spec,
)


class TestRegistryContents:
    def test_nine_datasets(self):
        assert len(DATASETS) == 9

    def test_paper_dataset_names_present(self):
        expected = {
            "bitcoin-otc",
            "college-msg",
            "calls-copenhagen",
            "sms-copenhagen",
            "email",
            "fb-wall",
            "sms-a",
            "stackoverflow",
            "superuser",
        }
        assert set(dataset_names()) == expected

    def test_message_networks_subset(self):
        assert set(MESSAGE_NETWORKS) <= set(dataset_names())

    def test_specs_have_descriptions_and_rows(self):
        for spec in DATASETS.values():
            assert spec.description
            assert spec.paper_row.events > 0
            assert 0 < spec.paper_row.unique_ts_fraction <= 1

    def test_bitcoin_forbids_repeated_edges(self):
        assert not DATASETS["bitcoin-otc"].config.allow_repeated_edges

    def test_email_has_same_timestamp_ccs(self):
        assert DATASETS["email"].config.cc_same_timestamp

    def test_qa_sites_have_in_bursts(self):
        assert DATASETS["stackoverflow"].config.p_in_burst > 0
        assert DATASETS["superuser"].config.p_in_burst > 0

    def test_message_networks_reply_heavy(self):
        for name in MESSAGE_NETWORKS:
            cfg = DATASETS[name].config
            assert cfg.p_reply >= 0.5


class TestGetDataset:
    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        pytest.importorskip("numpy", reason="dataset synthesis is numpy-seeded")

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known datasets"):
            get_dataset("nope")
        with pytest.raises(KeyError):
            get_spec("nope")

    def test_default_seed_is_deterministic(self):
        a = get_dataset("calls-copenhagen", scale=0.2)
        b = get_dataset("calls-copenhagen", scale=0.2)
        assert a.events == b.events

    def test_seed_override_changes_data(self):
        a = get_dataset("calls-copenhagen", scale=0.2)
        b = get_dataset("calls-copenhagen", scale=0.2, seed=999)
        assert a.events != b.events

    def test_scale_changes_size(self):
        small = get_dataset("calls-copenhagen", scale=0.1)
        spec = DATASETS["calls-copenhagen"]
        assert len(small) == max(1, int(round(spec.config.n_events * 0.1)))

    def test_graph_is_named(self):
        g = get_dataset("fb-wall", scale=0.05)
        assert g.name == "fb-wall"

    def test_two_node_scale_generates(self):
        g = get_dataset("calls-copenhagen", scale=0.001)
        assert len(g) == DATASETS["calls-copenhagen"].config.scaled(0.001).n_events
        assert all(ev.u != ev.v for ev in g.events)


#: SHA-256 of ``repr([(u, v, t), ...])`` for each dataset at scale 0.05.
GOLDEN_DIGESTS = {
    "calls-copenhagen": "2fbc396e3d31b2557c10d084647ed30b2a71390534d23d7474461dcc0859a56b",
    "sms-copenhagen": "6030debaa3738b50e8977dfd217cf3e66399ad41815bd0edcf32de7996337955",
    "college-msg": "63f2465f9b384258bc281144d7e68dc34521d25b81fa55fca2397cef69069140",
    "email": "5a90b668acdfae55b3a534e0dbfb438a6fb5fbb588499053938f9c168696abcf",
    "sms-a": "9005e2c55d69437e6bf9dd38848a10489f0bb17bf4985ddf0730effe9909b21e",
    "fb-wall": "df1ed2262c417d3dc22693156c58ac850cf0300729082a3126ca3813deccb72c",
    "bitcoin-otc": "656bd2f5897cd482af204bb72f9a39759b8cf5aa0eba5c6103008fccc9799c16",
    "stackoverflow": "2a97b0af6b0576ed803c8441703f0290dc2013060a9aac904fd27dc9a7ebce26",
    "superuser": "f70a893d59ae898a4b399e5383b854e36e900dafc1c48d1e8b43885bca4570ad",
}


class TestGoldenDatasets:
    """Every dataset's event stream, pinned: experiments depend on it bit for bit."""

    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        pytest.importorskip("numpy", reason="dataset synthesis is numpy-seeded")

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_digest(self, name):
        events = get_dataset(name, scale=0.05).events
        digest = hashlib.sha256(repr([(e.u, e.v, e.t) for e in events]).encode())
        assert digest.hexdigest() == GOLDEN_DIGESTS[name]


class TestDatasetMemo:
    @pytest.fixture(autouse=True)
    def _needs_numpy(self):
        pytest.importorskip("numpy", reason="dataset synthesis is numpy-seeded")

    def test_append_does_not_leak_into_next_call(self):
        g = get_dataset("email", scale=0.05)
        before = g.events
        g.append(Event(0, 1, before[-1].t + 1))
        again = get_dataset("email", scale=0.05)
        assert again is not g
        assert again.events == before

    def test_default_seed_spellings_share_data(self):
        spec = get_spec("sms-a")
        a = get_dataset("sms-a", scale=0.05)
        b = get_dataset("sms-a", scale=0.05, seed=spec.default_seed)
        assert a.events == b.events

    def test_backend_follows_environment(self, storage_backend, monkeypatch):
        from repro.storage import ENV_VAR

        first = get_dataset("fb-wall", scale=0.05)
        assert first.backend == storage_backend
        other = "columnar" if storage_backend == "list" else "list"
        monkeypatch.setenv(ENV_VAR, other)
        second = get_dataset("fb-wall", scale=0.05)
        assert second.backend == other
        assert second.events == first.events

    def test_second_call_does_not_generate(self, monkeypatch):
        calls = []
        original = registry.generate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(registry, "generate", counting)
        registry._dataset_events.cache_clear()
        get_dataset("superuser", scale=0.05)
        get_dataset("superuser", scale=0.05)
        assert len(calls) == 1


class TestDomainSignatures:
    """The Table-2 signatures the generators are calibrated to."""

    def test_bitcoin_events_equal_edges(self, small_bitcoin):
        assert len(small_bitcoin) == small_bitcoin.num_edges

    def test_email_unique_fraction_low(self, small_email):
        others = get_dataset("college-msg", scale=0.1)
        assert (
            small_email.unique_timestamp_fraction()
            < others.unique_timestamp_fraction()
        )

    def test_bitcoin_has_largest_median_gap(self, small_bitcoin, small_sms):
        assert (
            small_bitcoin.median_interevent_time()
            > small_sms.median_interevent_time()
        )
