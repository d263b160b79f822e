"""Batched census folding: the per-instance summaries as array ops.

The serial census fold (:func:`repro.algorithms.counting.run_census`)
spends its time in two interpreted per-instance loops — the
first-appearance relabel of :func:`~repro.core.notation.canonical_code`
and the pairwise :func:`~repro.core.eventpairs.classify_pair` walk.
This module performs both over whole **instance blocks** — the
``(n, n_events)`` arrays streamed by
:func:`repro.engine.driver.run_plan_blocks` — and folds the results into
a :class:`~repro.algorithms.counting.MotifCensus` bit-identically to the
serial pass; :func:`count_block_codes` and :func:`count_block_pairs`
are the same fold cut down to ``count_motifs`` / ``count_event_pairs``.

The packing trick: a block's rows collapse to one int64 key each —
decimal-packed relabel digits (the motif code) times ``7**(k-1)`` plus
the base-7 packed pair-type sequence — and one ``np.unique`` with a
stable first-appearance sort reproduces the serial counters exactly,
*including key order*: two instances share a composite key iff they
share both code and pair sequence, and the first instance of each
distinct key lands in the counters at the same rank the serial loop
would have inserted it.

The key fits 64 bits only while ``10**(2k) * 7**(k-1)`` does, which
bounds the batched fold at :data:`MAX_BATCH_EVENTS` events; larger
motifs stay on the tuple path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core._optional import import_numpy
from repro.core.eventpairs import ALL_PAIR_TYPES
from repro.core.notation import MAX_NOTATION_NODES

np = import_numpy()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.counting import MotifCensus

#: Pair-type by packed id: the six paper types in presentation order,
#: then disjoint (``None``) — the order :func:`classify_block_pairs`
#: assigns ids in.
PAIR_BY_ID = ALL_PAIR_TYPES + (None,)

#: Largest motif size the packed composite key can hold in an int64
#: (``10**(2k) * 7**(k-1) < 2**63`` holds through ``k = 6``).
MAX_BATCH_EVENTS = 6


def available() -> bool:
    """Whether the batched fold can run (NumPy importable)."""
    return bool(np)


def encode_block_codes(us, vs):
    """Decimal-packed canonical codes of a block of instances.

    ``us`` / ``vs`` are ``(n, k)`` int arrays of per-event endpoints in
    chronological order.  Returns ``(n,)`` int64 keys where
    ``str(key).zfill(2 * k)`` is exactly
    :func:`~repro.core.notation.canonical_code` of the row (the first
    digit of a canonical code is always 0, so the pack is lossless).

    The relabel runs column-by-column over the interleaved endpoint
    matrix, held transposed so every column is one contiguous array: a
    column's label is the label of any earlier column holding the same
    node (they all agree), or the row's next fresh label.  Matches the
    serial encoder's errors: self-loop events and motifs beyond
    :data:`~repro.core.notation.MAX_NOTATION_NODES` raise ``ValueError``.
    """
    n, k = us.shape
    if bool((us == vs).any()):
        raise ValueError("self-loop event has no motif code")
    ep = np.empty((2 * k, n), dtype=np.int64)
    ep[0::2] = us.T
    ep[1::2] = vs.T
    keys = np.zeros(n, dtype=np.int64)
    labels = [keys]  # column 0 is always label 0
    ndist = np.ones(n, dtype=np.int64)
    for j in range(1, 2 * k):
        label = ndist.copy()
        seen = np.zeros(n, dtype=bool)
        for i in range(j):
            eq = ep[i] == ep[j]
            np.copyto(label, labels[i], where=eq)
            seen |= eq
        labels.append(label)
        ndist += ~seen
        keys = keys * 10 + label
    if bool((ndist > MAX_NOTATION_NODES).any()):
        raise ValueError("motif has too many nodes for digit notation")
    return keys


def classify_block_pairs(u1, v1, u2, v2):
    """Packed pair-type ids of consecutive event pairs, elementwise.

    Ids index :data:`PAIR_BY_ID` (R, P, I, O, C, W, disjoint).  The
    priority — two-node-sharing cases before one-node cases — is the
    serial :func:`~repro.core.eventpairs.classify_pair` order, realized
    by ``np.select``'s first-match semantics.
    """
    r = (u1 == u2) & (v1 == v2)
    p = (u1 == v2) & (v1 == u2)
    i = v1 == v2
    o = u1 == u2
    c = v1 == u2
    w = u1 == v2
    return np.select([r, p, i, o, c, w], [0, 1, 2, 3, 4, 5], default=6).astype(np.int8)


def block_pair_ids(us, vs):
    """``(n, k - 1)`` packed pair-type ids of each row's consecutive pairs."""
    return classify_block_pairs(us[:, :-1], vs[:, :-1], us[:, 1:], vs[:, 1:])


def tally_first_appearance(counter, keys, decode) -> None:
    """Add each distinct key's count to ``counter`` in first-appearance order.

    ``decode`` maps a packed key (a Python int) to the counter key; the
    stable argsort of first indices inserts new keys at the rank a
    serial ``counter[key] += 1`` loop over ``keys`` would have.
    """
    uniq, first_idx, counts = np.unique(keys, return_index=True, return_counts=True)
    for rank in np.argsort(first_idx, kind="stable").tolist():
        counter[decode(int(uniq[rank]))] += int(counts[rank])


def count_block_codes(counter, blocks, u_col, v_col) -> None:
    """Fold instance blocks into per-code counts (``count_motifs``)."""
    for block in blocks:
        n, k = block.shape
        if n:
            keys = encode_block_codes(u_col[block], v_col[block])
            tally_first_appearance(counter, keys, lambda key: str(key).zfill(2 * k))


def count_block_pairs(counter, blocks, u_col, v_col) -> None:
    """Fold instance blocks into event-pair counts (``count_event_pairs``).

    Rows flatten instance-major, so first appearance follows the serial
    walk over each instance's consecutive pairs.
    """
    for block in blocks:
        if len(block):
            ids = block_pair_ids(u_col[block], v_col[block]).ravel()
            tally_first_appearance(counter, ids, PAIR_BY_ID.__getitem__)


def fold_census_blocks(
    census: "MotifCensus",
    blocks: Iterable,
    t_col,
    u_col,
    v_col,
    *,
    collect_timespans: bool = False,
    collect_positions: bool = False,
    span_filter: set | None = None,
    pos_filter: set | None = None,
    sample_cap: int = 0,
) -> int:
    """Fold instance blocks into ``census``; return the total count.

    ``blocks`` yields ``(n_i, k)`` int64 arrays of event indices in the
    serial enumeration order; ``t_col`` / ``u_col`` / ``v_col`` are the
    full per-event columns.  Counter contents *and key order*, sample
    lists and totals come out bit-identical to the serial fold (Python
    floats and ints throughout — array scalars never leak out).
    """
    code_counts = census.code_counts
    pair_counts = census.pair_counts
    pair_sequence_counts = census.pair_sequence_counts
    code_str_cache: dict[int, str] = {}
    pair_seq_cache: dict[int, tuple] = {}
    total = 0
    for block in blocks:
        n, k = block.shape
        if n == 0:
            continue
        total += n
        us = u_col[block]
        vs = v_col[block]
        code_keys = encode_block_codes(us, vs)
        ids = block_pair_ids(us, vs)
        pair_keys = ids[:, 0].astype(np.int64)
        for j in range(1, k - 1):
            pair_keys *= 7
            pair_keys += ids[:, j]
        pair_base = 7 ** (k - 1)
        composite = code_keys * pair_base + pair_keys
        uniq, first_idx, inverse, counts = np.unique(
            composite, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first_idx, kind="stable")

        codes_by_uniq = [""] * len(uniq)
        for rank in order.tolist():
            key = int(uniq[rank])
            count = int(counts[rank])
            code_key, pair_key = divmod(key, pair_base)
            code = code_str_cache.get(code_key)
            if code is None:
                code = code_str_cache[code_key] = str(code_key).zfill(2 * k)
            codes_by_uniq[rank] = code
            pair_seq = pair_seq_cache.get(pair_key)
            if pair_seq is None:
                ids_rev = []
                pk = pair_key
                for _ in range(k - 1):
                    pk, pid = divmod(pk, 7)
                    ids_rev.append(pid)
                pair_seq = pair_seq_cache[pair_key] = tuple(
                    PAIR_BY_ID[pid] for pid in reversed(ids_rev)
                )
            code_counts[code] += count
            for ptype in pair_seq:
                pair_counts[ptype] += count
            pair_sequence_counts[pair_seq] += count

        if collect_timespans:
            spans = (t_col[block[:, -1]] - t_col[block[:, 0]]).tolist()
            inv = inverse.tolist()
            for r in range(n):
                code = codes_by_uniq[inv[r]]
                if span_filter is not None and code not in span_filter:
                    continue
                bucket = census.timespans.setdefault(code, [])
                if len(bucket) < sample_cap:
                    bucket.append(spans[r])

        if collect_positions:
            t0 = t_col[block[:, 0]].tolist()
            spans_p = (t_col[block[:, -1]] - t_col[block[:, 0]]).tolist()
            mids = t_col[block[:, 1:-1]]
            inv = inverse.tolist()
            for r in range(n):
                code = codes_by_uniq[inv[r]]
                if pos_filter is not None and code not in pos_filter:
                    continue
                span = spans_p[r]
                if span <= 0:
                    continue
                bucket2 = census.intermediate_positions.setdefault(code, [])
                t_first = t0[r]
                # Strict cap (never exceeded), so capped lists are exact
                # prefixes — the invariant sharded merges rely on.
                for pos, t_mid in enumerate(mids[r].tolist(), start=1):
                    if len(bucket2) >= sample_cap:
                        break
                    bucket2.append((pos, (t_mid - t_first) / span))
    return total
