"""Extension kernels: the one implementation of frontier admission.

A kernel answers the engine's only primitive question: *which events can
extend which partial instances?*  The contract is
:meth:`ExtensionKernel.extend_frontier`::

    extend_frontier(partials, lo, hi, need_nodes=True)
        -> [(partial_position, event_index, new_node_tuple | None), ...]

``partials`` is any sequence of records exposing ``nodes`` (tuple of the
partial's distinct nodes in first-appearance order), ``t_root`` and
``t_last`` — the engine's :class:`Partial`, or the online engine's
prefix records.  ``[lo, hi)`` bounds the candidate *event indices* (the
full storage for a batch run; the single arriving event for the online
engine).  A triple is emitted exactly when the event

* is adjacent to the partial (shares a node),
* is strictly later than the partial's last event and at or before the
  chained deadline ``min(t_last + ΔC, t_root + ΔW)`` (the arithmetic of
  :meth:`TimingConstraints.next_event_deadline`, resolved by the plan),
* keeps the distinct-node count within the plan's ``node_cap``.

Output order is part of the contract: triples are grouped by partial in
input order, event indices ascending within a partial, each admissible
``(partial, event)`` pair exactly once.  The driver relies on this to
reproduce the serial DFS yield order bit-for-bit.

Two kernels implement the contract:

* :class:`GenericExtensionKernel` — one
  :meth:`~repro.storage.base.GraphStorage.adjacent_events_between`
  bisection per partial; correct on every backend.
* :class:`NumpyExtensionKernel` — the same contract (inherited), plus
  the driver's array-native block lane over the banded CSR machinery of
  :class:`~repro.storage.numpy_backend.NumpyStorage`
  (:meth:`~repro.storage.numpy_backend.NumpyStorage.extension_arrays`).

The **block lane** is ``block_ready()`` plus ``expand_block(roots)``,
which grows a whole root block to completion and returns the completed
instances as one ``(n, n_events)`` array in DFS yield order (see
:mod:`repro.engine.driver`).  The lane is kernel-agnostic — the driver
and the batched census fold only probe for the two methods — and the
numpy kernel serves it with its frontier held as arrays, through one
vectorized admission sweep.  While tail appends are pending the banded
arrays are unavailable, ``block_ready()`` is False, and the driver takes
the Partial path through ``extend_frontier``.

Backends advertise their native kernel via the
:attr:`~repro.storage.base.GraphStorage.extension_kernel` class
attribute; :func:`kernel_for` resolves it, demoting to generic when the
advertised kernel is unavailable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import repro.obs as _obs
from repro.core._optional import import_numpy

np = import_numpy()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.plan import ExecutionPlan
    from repro.storage.base import GraphStorage

#: ``(partial position, event index, updated node tuple or None)``.
Extension = tuple[int, int, "tuple[int, ...] | None"]


class Partial:
    """One partial instance of the enumeration frontier.

    Self-contained — event-index sequence, distinct nodes in
    first-appearance order, root and last timestamps — so kernels never
    resolve anything against the graph while testing admission.
    """

    __slots__ = ("seq", "nodes", "t_root", "t_last")

    def __init__(
        self,
        seq: tuple[int, ...],
        nodes: tuple[int, ...],
        t_root: float,
        t_last: float,
    ) -> None:
        self.seq = seq
        self.nodes = nodes
        self.t_root = t_root
        self.t_last = t_last

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Partial {self.seq} nodes={self.nodes}>"


class ExtensionKernel:
    """Base kernel: the scalar admission arithmetic, both traversals.

    Every kernel shares both traversals — partial-major (each partial
    asks the storage for its candidates) and event-major (one arriving
    event, the online engine's per-push shape) — so the admission
    comparisons exist exactly once per traversal direction.
    """

    kernel_name = "generic"

    def __init__(self, plan: "ExecutionPlan", storage: "GraphStorage") -> None:
        self._plan = plan
        self._storage = storage

    @property
    def plan(self) -> "ExecutionPlan":
        return self._plan

    @property
    def storage(self) -> "GraphStorage":
        return self._storage

    def extend_frontier(
        self,
        partials: Sequence,
        lo: int,
        hi: int,
        *,
        need_nodes: bool = True,
    ) -> list[Extension]:
        """All admissible ``(partial, event)`` extensions (see module doc).

        ``need_nodes=False`` skips building the updated node tuples (the
        driver's final level — completed instances never extend again).
        """
        if hi - lo == 1:
            return self._extend_by_event(partials, lo, need_nodes)
        return self._extend_partialwise(partials, lo, hi, need_nodes)

    def next_frontier(
        self,
        partials: Sequence[Partial],
        lo: int,
        hi: int,
        times: Sequence[float],
    ) -> list[Partial]:
        """The driver's non-final level: extended partials in DFS pop order.

        Semantically ``extend_frontier`` folded into new :class:`Partial`
        records — parents keep their order, each parent's children flip
        to descending event order (the LIFO reversal of the historical
        DFS; see :mod:`repro.engine.driver`).
        """
        nxt: list[Partial] = []
        group: list[Partial] = []
        current = -1
        for pos, idx, new_nodes in self.extend_frontier(partials, lo, hi):
            if pos != current:
                if group:
                    group.reverse()
                    nxt.extend(group)
                    group = []
                current = pos
            parent = partials[pos]
            group.append(
                Partial(parent.seq + (idx,), new_nodes, parent.t_root, times[idx])
            )
        if group:
            group.reverse()
            nxt.extend(group)
        return nxt

    # ------------------------------------------------------------------
    # event-major: one arriving event against many partials (online push)
    # ------------------------------------------------------------------
    def _extend_by_event(
        self, partials: Sequence, idx: int, need_nodes: bool
    ) -> list[Extension]:
        ev = self._storage.event_at(idx)
        u, v, t = ev.u, ev.v, ev.t
        plan = self._plan
        dc = plan.delta_c
        dw = plan.delta_w
        node_cap = plan.node_cap
        out: list[Extension] = []
        for pos, p in enumerate(partials):
            if t <= p.t_last:
                continue
            if t > p.t_last + dc or t > p.t_root + dw:
                continue
            nodes = p.nodes
            u_in = u in nodes
            v_in = v in nodes
            if not (u_in or v_in):
                continue
            extra = (not u_in) + (not v_in)
            if extra and len(nodes) + extra > node_cap:
                continue
            if not need_nodes:
                new_nodes = None
            elif not extra:
                new_nodes = nodes
            elif u_in:
                new_nodes = nodes + (v,)
            elif v_in:
                new_nodes = nodes + (u,)
            else:
                new_nodes = nodes + (u, v)
            out.append((pos, idx, new_nodes))
        return out

    # ------------------------------------------------------------------
    # partial-major: each partial asks the storage for its candidates
    # ------------------------------------------------------------------
    def _extend_partialwise(
        self, partials: Sequence, lo: int, hi: int, need_nodes: bool
    ) -> list[Extension]:
        storage = self._storage
        events = storage.events
        adjacent = storage.adjacent_events_between
        plan = self._plan
        dc = plan.delta_c
        dw = plan.delta_w
        node_cap = plan.node_cap
        bounded = lo > 0 or hi < len(events)
        out: list[Extension] = []
        for pos, p in enumerate(partials):
            t_last = p.t_last
            deadline = min(t_last + dc, p.t_root + dw)
            if deadline <= t_last:
                continue
            for idx in adjacent(p.nodes, t_last, deadline):
                if bounded and not lo <= idx < hi:
                    continue
                ev = events[idx]
                u = ev.u
                v = ev.v
                nodes = p.nodes
                u_in = u in nodes
                v_in = v in nodes
                extra = (not u_in) + (not v_in)
                if extra and len(nodes) + extra > node_cap:
                    continue
                if not need_nodes:
                    new_nodes = None
                elif not extra:
                    new_nodes = nodes
                elif u_in:
                    new_nodes = nodes + (v,)
                elif v_in:
                    new_nodes = nodes + (u,)
                else:
                    new_nodes = nodes + (u, v)
                out.append((pos, idx, new_nodes))
        return out


class GenericExtensionKernel(ExtensionKernel):
    """Per-node-bisect kernel: exact on every storage backend."""

    kernel_name = "generic"


class NumpyExtensionKernel(ExtensionKernel):
    """Array-native block lane over :class:`NumpyStorage`'s banded CSR.

    One admission sweep (:meth:`_admit`) extends a whole frontier held
    as arrays — a padded node matrix (CSR slots, one column per
    partial), node counts, ``t_root`` / ``t_last`` columns:
    per-(partial, node) half-open window queries
    become batched ``searchsorted`` probes, the ragged candidate ranges
    gather through one fancy-index, and dedup/adjacency/node-cap
    admission run as array ops.  :meth:`expand_block` keeps the frontier
    in that form across every level of a root block (the driver's block
    lane).  ``extend_frontier`` is the base class's: the online engine's
    single-event pushes and the tail-pending Partial path take it.
    """

    kernel_name = "numpy"

    def __init__(self, plan: "ExecutionPlan", storage: "GraphStorage") -> None:
        super().__init__(plan, storage)
        self._block_arrays: dict | None = None

    # ------------------------------------------------------------------
    # block path (the driver's array-native lane)
    # ------------------------------------------------------------------
    def block_ready(self) -> bool:
        """Whether :meth:`expand_block` can serve this storage right now.

        Caches the extension arrays on the kernel for the run's block
        calls; ``False`` (tail appends pending) routes the driver to the
        Partial-object path.
        """
        self._block_arrays = getattr(self._storage, "extension_arrays", lambda: None)()
        return self._block_arrays is not None

    def expand_block(self, roots):
        """One root block to completion: ``(rows, level_partials, level_ext)``.

        ``rows`` is the ``(n, n_events)`` int64 array of completed
        instances in the driver's DFS yield order: each non-final level
        emits children in descending event order per parent (the LIFO
        reversal, folded into :meth:`_admit`'s sort), the final level
        in ascending order.  The level arrays feed the frontier
        histograms.  Requires a prior ``block_ready()``.
        """
        arrays = self._block_arrays
        plan = self._plan
        n_events = plan.n_events
        t, su, sv = arrays["t"], arrays["su"], arrays["sv"]
        seqs = np.asarray(roots, dtype=np.int64).reshape(-1, 1)
        roots = seqs[:, 0]
        # Non-final partials hold at most n_events - 1 events, hence at
        # most n_events nodes; a root always holds two, whatever the cap.
        pad = max(2, min(plan.node_cap, n_events))
        slots = np.full((pad, len(roots)), -1, dtype=np.int64)
        slots[0] = su[roots]
        slots[1] = sv[roots]
        n_nodes = np.full(len(roots), 2, dtype=np.int64)
        t_root = t_last = t[roots]
        level_partials = np.zeros(n_events - 1, dtype=np.int64)
        level_ext = np.zeros(n_events - 1, dtype=np.int64)
        for depth in range(1, n_events):
            level_partials[depth - 1] = len(seqs)
            final = depth == n_events - 1
            hit = self._admit(arrays, slots, n_nodes, t_root, t_last, descending=not final)
            if hit is None:
                return np.empty((0, n_events), np.int64), level_partials, level_ext
            cand, part, u_in, v_in, slots = hit
            level_ext[depth - 1] = len(cand)
            grown = np.empty((len(cand), depth + 1), dtype=np.int64)
            grown[:, :depth] = seqs.take(part, axis=0)
            grown[:, depth] = cand
            seqs = grown
            if final:
                break
            # Adjacent candidates introduce at most one node: the
            # endpoint that is not yet a member.
            n_nodes = n_nodes.take(part)
            grow = np.flatnonzero(~(u_in & v_in))
            fresh = np.where(u_in, sv[cand], su[cand])
            slots[n_nodes[grow], grow] = fresh[grow]
            n_nodes[grow] += 1
            t_root = t_root.take(part)
            t_last = t[cand]
        return seqs, level_partials, level_ext

    # ------------------------------------------------------------------
    # the one admission sweep
    # ------------------------------------------------------------------
    def _admit(self, arrays, slots, n_nodes, t_root, t_last, *, descending=False):
        """Every admissible extension of an array-shaped frontier.

        ``slots`` is the ``(pad, n_p)`` node matrix in CSR-slot space,
        one column per partial: column ``i`` holds partial ``i``'s
        ``n_nodes[i]`` nodes first, ``-1`` in the padding.  Returns
        ``None`` when nothing is admissible, else ``(cand, cand_part, u_in, v_in, cand_slots)``
        grouped by partial in input order with events ascending within
        a partial — descending under ``descending=True`` — where
        ``cand_slots`` is a fresh node matrix with each extension's
        parent column.
        """
        t_col = arrays["t"]
        m = arrays["m"]
        n_p = len(n_nodes)
        if n_p == 0 or m == 0:
            return None
        plan = self._plan

        # Per-partial deadlines — the plan's chained-deadline arithmetic,
        # broadcast: min(t_last + ΔC, t_root + ΔW).
        deadline = np.minimum(t_last + plan.delta_c, t_root + plan.delta_w)

        # One window query per (partial, known node); empty/past-deadline
        # windows fall out as empty index ranges.
        live = slots >= 0
        q_slot = slots[live]
        q_part = np.nonzero(live)[1]

        # Half-open (t_last, deadline] -> global index range, then into
        # each node's band of the flat CSR index (strictly increasing per
        # band, globally sorted after the + slot*m shift).  Probing in
        # ascending order keeps the bisections cache-local (several times
        # faster than scattered probes); the candidate sort below makes
        # the query order irrelevant to the output.
        win_lo = t_col.searchsorted(t_last, side="right")
        win_hi = t_col.searchsorted(deadline, side="right")
        base = q_slot * np.int64(m)
        q_lo = base + win_lo[q_part]
        order = q_lo.argsort()
        q_part = q_part[order]
        banded = arrays["banded"]
        a = banded.searchsorted(q_lo[order], side="left")
        b = banded.searchsorted(base[order] + win_hi[q_part], side="left")
        cnt = b - a
        np.maximum(cnt, 0, out=cnt)
        total_c = int(cnt.sum())
        if total_c == 0:
            return None

        # Ragged gather of every candidate range in one shot.
        shift = np.repeat(a - (np.cumsum(cnt) - cnt), cnt)
        cand = arrays["idx"][shift + np.arange(total_c, dtype=np.int64)]
        cand_part = np.repeat(q_part, cnt)

        # Sort per partial and drop duplicates: an event adjacent to two
        # motif nodes arrives once per node query.  The two-key sort
        # packs into one int64 sort — much cheaper than a lexsort — with
        # the event field complemented for descending order, unless the
        # packed key cannot fit (lexsort fallback).
        bits = int(m).bit_length()
        if bits + int(n_p).bit_length() < 63:
            low = (np.int64(1) << bits) - 1
            packed = (cand_part << bits) | (low - cand if descending else cand)
            packed.sort()
            if total_c > 1:
                keep = np.empty(total_c, dtype=bool)
                keep[0] = True
                np.not_equal(packed[1:], packed[:-1], out=keep[1:])
                if not keep.all():
                    packed = packed[keep]
            cand = packed & low
            if descending:
                cand = low - cand
            cand_part = packed >> bits
        else:  # pragma: no cover - >2^63 packed keys
            order = np.lexsort((-cand if descending else cand, cand_part))
            cand = cand[order]
            cand_part = cand_part[order]
            if total_c > 1:
                dup = np.empty(total_c, dtype=bool)
                dup[0] = False
                dup[1:] = (cand[1:] == cand[:-1]) & (cand_part[1:] == cand_part[:-1])
                if dup.any():
                    keep = ~dup
                    cand = cand[keep]
                    cand_part = cand_part[keep]

        # Node-cap admission: membership of each candidate's endpoints in
        # its partial's node column (``take`` plus one compare per pad
        # row; 2-D fancy indexing and ``any(axis=...)`` are several times
        # slower).  Every candidate is adjacent — it came out of one of
        # the partial's node windows — so it introduces at most one node,
        # and exactly like the scalar kernels only those extensions are
        # tested against the cap.
        cand_slots = slots.take(cand_part, axis=1)
        cu = arrays["su"][cand]
        cv = arrays["sv"][cand]
        u_in = cand_slots[0] == cu
        v_in = cand_slots[0] == cv
        for row in cand_slots[1:]:
            u_in |= row == cu
            v_in |= row == cv
        if int(n_nodes.max()) >= plan.node_cap:
            ok = (u_in & v_in) | (n_nodes[cand_part] < plan.node_cap)
            if not ok.all():
                keep = np.flatnonzero(ok)
                if not len(keep):
                    return None
                cand = cand[keep]
                cand_part = cand_part[keep]
                u_in = u_in[keep]
                v_in = v_in[keep]
                cand_slots = cand_slots.take(keep, axis=1)
        return cand, cand_part, u_in, v_in, cand_slots


#: Registry of kernel capability names (the values backends may put in
#: :attr:`~repro.storage.base.GraphStorage.extension_kernel`).
KERNELS: dict[str, type[ExtensionKernel]] = {"generic": GenericExtensionKernel}
if np:
    KERNELS["numpy"] = NumpyExtensionKernel

#: The demotion ladder: when an advertised kernel is not registered in
#: this build, resolution walks down one rung at a time ("native" wants
#: numba, "numpy" wants NumPy; "generic" is always present).
KERNEL_FALLBACKS: dict[str, str] = {"native": "numpy", "numpy": "generic"}

_NATIVE_PROBED = False


def _probe_native() -> None:
    """Import the native tier once so it can self-register.

    ``repro.engine.native`` registers ``"native"`` in :data:`KERNELS` at
    import when numba is present; the import is deferred to first demand
    (a backend advertising ``"native"``) so numba's import cost is never
    paid by builds that don't use it.
    """
    global _NATIVE_PROBED
    if _NATIVE_PROBED:
        return
    _NATIVE_PROBED = True
    try:
        import repro.engine.native  # noqa: F401 - registers on import
    except Exception:  # pragma: no cover - broken optional install
        pass


def count_kernel_demotion(src: str, dst: str) -> None:
    """Record one kernel demotion in the obs counters (when enabled).

    Covers both compile-time demotion (numba or NumPy absent at plan
    resolution) and the driver's runtime fallback
    from the block lane to the Partial path (tail appends pending, so
    the banded arrays are unavailable for the run).
    """
    rec = _obs.ACTIVE
    if rec is not None:
        rec.inc(_obs.labeled("engine.kernel.demote", **{"from": src, "to": dst}))


def resolve_kernel_name(name: str) -> str:
    """Resolve an advertised capability to a kernel registered here.

    Walks :data:`KERNEL_FALLBACKS` one rung at a time, counting each
    hop in ``engine.kernel.demote{from=...,to=...}`` so a silent
    fallback is visible in ``stats`` instead of only in timings.
    """
    if name == "native":
        _probe_native()
    while name not in KERNELS:
        fallback = KERNEL_FALLBACKS.get(name, "generic")
        count_kernel_demotion(name, fallback)
        name = fallback
    return name


def has_kernel(name: str) -> bool:
    """Whether a kernel capability name is implemented in this build."""
    if name == "native":
        _probe_native()
    return name in KERNELS


def kernel_for(plan: "ExecutionPlan", storage: "GraphStorage") -> ExtensionKernel:
    """Bind the plan's kernel to one storage engine.

    Plans are picklable and travel to workers, so the kernel *name* is
    re-resolved here: a plan compiled where numba was present demotes
    cleanly (and countably) on a worker where it is not.
    """
    name = plan.kernel_name
    if name not in KERNELS:
        name = resolve_kernel_name(name)
    cls = KERNELS.get(name, GenericExtensionKernel)
    rec = _obs.ACTIVE
    if rec is not None:
        rec.inc(_obs.labeled("engine.kernel.bind", kernel=cls.kernel_name))
    return cls(plan, storage)
