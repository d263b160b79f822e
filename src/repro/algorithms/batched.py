"""Batched census folding: the per-instance summaries as array ops.

The serial census fold (:func:`repro.algorithms.counting.run_census`)
spends its time relabeling each instance's events to its canonical
motif code (:func:`~repro.core.notation.canonical_code`).  This module
performs that relabel over whole **instance blocks** — the
``(n, n_events)`` arrays streamed by
:func:`repro.engine.driver.run_plan_blocks` — and folds the results into
a :class:`~repro.algorithms.counting.MotifCensus` bit-identically to the
serial pass.

Every block row collapses to one int64 key, its decimal-packed code,
and one ``np.unique`` with a stable first-appearance sort reproduces the
serial counters exactly, *including key order*.  The pair-type
counters need no per-instance work: an instance's event-pair sequence
is a function of its code
(:func:`~repro.core.eventpairs.pair_sequence_of_code`), so each distinct
code adds its sequence once, with its count.  The first instance to
show a given pair type or pair sequence is the first instance of some
code containing it, so walking codes in first-appearance order inserts
those keys at the rank the serial loop would too.

Motifs larger than :data:`MAX_BATCH_EVENTS` events stay on the tuple
path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.core._optional import import_numpy
from repro.core.eventpairs import pair_sequence_of_code
from repro.core.notation import MAX_NOTATION_NODES

np = import_numpy()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.counting import MotifCensus

#: Largest motif size the batched fold takes.  A ``2k``-digit code key
#: would fit an int64 through ``k = 9`` (``10**18 < 2**63``); the bound
#: stays at six events, the largest census the experiments and the
#: service run.
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
    collect = collect_timespans or collect_positions
    total = 0
    for block in blocks:
        n, k = block.shape
        if n == 0:
            continue
        total += n
        keys = encode_block_codes(u_col[block], v_col[block])
        if collect:
            uniq, first_idx, inverse, counts = np.unique(
                keys, return_index=True, return_inverse=True, return_counts=True
            )
        else:
            uniq, first_idx, counts = np.unique(keys, return_index=True, return_counts=True)
        uniq_keys = uniq.tolist()
        uniq_counts = counts.tolist()
        codes_by_uniq = [""] * len(uniq_keys)
        for rank in np.argsort(first_idx, kind="stable").tolist():
            count = uniq_counts[rank]
            code = codes_by_uniq[rank] = str(uniq_keys[rank]).zfill(2 * k)
            pair_seq = pair_sequence_of_code(code)
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
