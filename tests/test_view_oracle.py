"""Key-order oracle for the online views, independent of the engine.

Two pins, both on the seeded scenarios of :mod:`tests.eager_views`:

* **the eager reference** — per-view ``Counter`` s plus an anchor heap
  over batch-enumerated instances — must agree with every view of a
  :class:`~repro.online.MultiViewCensus` (and with the solo view of an
  :class:`~repro.online.OnlineCensus`) on the full census after every
  read: code, pair and pair-sequence counters *in key order*, ``total``,
  and the ``discovered`` / ``expired`` bookkeeping;
* **golden digests** recorded from the eager-expiry engine this horizon
  engine replaced must match bit for bit, so a change that moved both
  the engine and the reference the same wrong way still fails.

The scenarios cover plain, node-sliced, predicate, backfilled,
cold-start and degraded views, drops, re-registration of a dropped
name, ``prune()`` / auto-prune interleavings and clock advances, under
finite and unbounded retention.  The checkpoint test restores a
committed format-v1 directory and checks 200 further pushes against
the census sequence the eager engine produced from it.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import pytest

from repro.online import MultiViewCensus, OnlineCensus
from tests import eager_views as ev

CHECKPOINT_DIR = Path(__file__).parent / "data" / "online_checkpoint_v1"

#: sha256 per view of :func:`tests.eager_views.run_scenario`'s records,
#: recorded from the eager-expiry engine.
GOLDEN = {
    "finite": {
        "__core__": "05211264679041a3ae1951b8118a4d5a6acdb188b464147b3c5936e187a69d9b",
        "cold": "9fa7d3e8acc1260dd7ccfa896d4d143a022ee80b8c367186ff0605c305e59a68",
        "cold-pred": "8f51f0d97a4ba26267b3bbc242fe8689b0c13cf72fba8451485286099ee71bbf",
        "cold-slice": "d82d0d123c07afbdb741d6fe4ee25c5891c08cb6a4a7c4636fb9fafa53df774a",
        "late-plain": "35529711f563db9cdea2b83e3b46ab04a5a30e0d262e157d3098b9f347128aab",
        "late-slice": "bf1d17f5ebc4f3e8527052a9f2087b4b205e028d65e17c3a5ce13589c4366083",
        "pred": "fa05a9f8c781955618913bee015e1699383b48af8c1a6ac0a3bd74ff0ef1d4e5",
        "slice-a": "bc9b25ec4cd60cf8d2b4fc99cf2889fc143c0d93af5d04947ade703d0a46d667",
        "slice-b": "12ad157c2a0a666b0ae5a9aa0358c711401f581161949a60c0871ddbcf81d73c",
        "w15": "e6cefe6d5ea622f96b1b828e747fe0e04d0e84dadc9e0a622ce6c17a0b78dca6",
        "w3": "12857ced17809f216cc1d469353f9c7b338c5574f8c99bcbf9e54b1d632d69e0",
        "w7": "f13991e974a92ac41385529d62f04c15ee8b2906e0a27cdd188e1d5aea87e6a7",
    },
    "unbounded": {
        "__core__": "05211264679041a3ae1951b8118a4d5a6acdb188b464147b3c5936e187a69d9b",
        "cold": "9fa7d3e8acc1260dd7ccfa896d4d143a022ee80b8c367186ff0605c305e59a68",
        "cold-pred": "8f51f0d97a4ba26267b3bbc242fe8689b0c13cf72fba8451485286099ee71bbf",
        "cold-slice": "d82d0d123c07afbdb741d6fe4ee25c5891c08cb6a4a7c4636fb9fafa53df774a",
        "late-plain": "a30c1807dbcd1fcf5b138bc7f9ec5e8e84cb0ab811df5d8f605e472096abaa53",
        "late-slice": "53693314554ff454e7b59b4431770e0e987303cd876bb8f2b4e870239c94ffd2",
        "pred": "fa05a9f8c781955618913bee015e1699383b48af8c1a6ac0a3bd74ff0ef1d4e5",
        "slice-a": "5d3add5c48fb64f59e915045972a37e47b1fa7ad591ba9f0ca091e6c0a11a290",
        "slice-b": "12ad157c2a0a666b0ae5a9aa0358c711401f581161949a60c0871ddbcf81d73c",
        "w15": "e6cefe6d5ea622f96b1b828e747fe0e04d0e84dadc9e0a622ce6c17a0b78dca6",
        "w3": "12857ced17809f216cc1d469353f9c7b338c5574f8c99bcbf9e54b1d632d69e0",
        "w7": "f13991e974a92ac41385529d62f04c15ee8b2906e0a27cdd188e1d5aea87e6a7",
    },
}

#: sha256 of :func:`tests.eager_views.run_facade` over the 420-event
#: stream, recorded from the eager-expiry engine.
GOLDEN_FACADE = {
    "plain": "06de738b85f48ff79acf9fcd058e08a951fa2ec49cccabe75688ad8520d47e23",
    "pred": "d979e7025dbd00b959d20f614ef064197a0ddc1f7168e7752a6acc1f17030bd2",
}

#: sha256 of the restored engine's record followed by 200 pushes'
#: records, recorded from the eager-expiry engine on the same fixture.
GOLDEN_CHECKPOINT = "776825d893fbf47e47ab762afa24c2a30f34f1d4431f7b80537bf24b35be9602"

SCENARIOS = {"finite": (15.0, {}), "unbounded": (math.inf, {"prune_every": 5})}


@pytest.fixture(scope="module")
def events():
    return ev.seeded_stream()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_view_matches_eager_reference(events, scenario):
    retention, kwargs = SCENARIOS[scenario]
    engine = MultiViewCensus(3, ev.CONSTRAINTS, retention, max_nodes=3, **kwargs)
    got = ev.run_scenario(
        engine,
        events,
        census_items=ev.engine_census_items,
        bookkeeping=ev.engine_bookkeeping,
    )
    want = ev.run_scenario(
        ev.EagerViews(events, retention),
        events,
        census_items=lambda ref, name: ref.census_items(name),
        bookkeeping=lambda ref, name: ref.bookkeeping(name),
    )
    assert set(got) == set(want)
    for name in want:
        for g, w in zip(got[name], want[name]):
            assert g == w, (name, g[0])
        assert len(got[name]) == len(want[name]), name
    assert ev.digest_records(got) == GOLDEN[scenario]


@pytest.mark.parametrize("label", sorted(GOLDEN_FACADE))
def test_solo_engine_matches_reference_and_golden(events, label):
    predicate = ev.anchor_even if label == "pred" else None
    prune_every = 5 if label == "plain" else None
    engine = OnlineCensus(
        3, ev.CONSTRAINTS, 7.0, max_nodes=3, predicate=predicate, prune_every=prune_every
    )
    records = ev.run_facade(engine, events)
    ref = ev.EagerViews(events, 7.0)
    ref.add_view("solo", 7.0, predicate=predicate, backfill=False)
    for (_out, record), event in zip(records, events):
        ref.push(event)
        codes, pairs, pair_seqs, total = ref.census_items("solo")
        _mode, _window, discovered, expired = ref.bookkeeping("solo")
        assert record[2:] == (
            discovered,
            expired,
            total,
            codes,
            ev._pairs(pairs),
            ev._pairs(pair_seqs),
            total,
        )
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == GOLDEN_FACADE[label]


def test_v1_checkpoint_fixture_resumes_bit_identically():
    pytest.importorskip("numpy", reason="checkpoint pages are numpy")
    events = ev.seeded_stream(n=440)
    engine = OnlineCensus.restore(CHECKPOINT_DIR, prune_every=16)
    assert engine.window == 15.0 and engine.pushed == 234
    first = ev.facade_record(engine)
    assert first[2:5] == (400, 340, 60)
    records = ev.run_facade(engine, events[234:434])
    digest = hashlib.sha256(repr([first] + records).encode()).hexdigest()
    assert digest == GOLDEN_CHECKPOINT
