"""Compiled traces: the one fast-replay input type.

A :class:`~repro.workload.trace.Trace` stores one :class:`Request` object
per request, keyed by hierarchical :class:`~repro.ndn.name.Name`s — ideal
for inspection, slow to replay.  Compiling a trace interns every distinct
name to a dense ``int32`` content id **once**, after which the replay
kernel (:mod:`repro.workload.fast_replay`) and the sweep runner
(:mod:`repro.perf.parallel`) work entirely on flat arrays.

A :class:`CompiledTrace` is a name table (``names[content_id]``, in
first-appearance order) plus an ordered run of :class:`TraceShard`s, each
holding the columns of consecutive requests:

* ``ids[i]``   — content id of request ``i`` (dense, 0..n_names-1),
* ``times[i]`` — request timestamp in ms,
* ``users[i]`` — requesting user id,
* ``occurrence[i]`` — how many earlier requests asked for the same id
  (the ``request_index`` the reference replay hands to
  :meth:`MarkingRule.is_private`),
* ``first_occurrence[i]`` — True iff request ``i`` is the first request
  for its content id (the compulsory-miss positions).

:func:`compile_trace` returns one in-RAM shard and is memoized on the
trace (see :meth:`Trace.compile`), so sweeping S schemes × C cache sizes
pays the interning cost once, not S × C times.
:class:`~repro.workload.sharded.ShardedCompiledTrace` is the same type
over memory-mapped on-disk shards; consumers read only ``names``,
``n_names``, :meth:`~CompiledTrace.iter_shards`,
:meth:`~CompiledTrace.iter_uris` and :meth:`~CompiledTrace.to_trace`,
so they never need to know which one they hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.ndn.name import Name
from repro.workload.trace import Request, Trace


@dataclass(frozen=True)
class TraceShard:
    """The columns of one run of consecutive requests."""

    ids: np.ndarray  #: int32
    times: np.ndarray  #: float64
    users: np.ndarray  #: int32
    occurrence: np.ndarray  #: int32
    first_occurrence: np.ndarray  #: bool

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    def release(self) -> None:
        """Drop a memory-mapped shard's pages (``madvise(MADV_DONTNEED)``).

        Called by streaming consumers after a shard is replayed so peak
        RSS stays bounded by one resident shard.  A no-op for in-RAM
        arrays; best-effort on platforms without madvise, which simply
        rely on the VM to reclaim cold pages.
        """
        import mmap as _mmap

        advice = getattr(_mmap, "MADV_DONTNEED", None)
        if advice is None:  # pragma: no cover - platform fallback
            return
        for array in (
            self.ids, self.times, self.users, self.occurrence,
            self.first_occurrence,
        ):
            source = getattr(array, "_mmap", None)
            if source is not None:
                try:
                    source.madvise(advice)
                except (ValueError, OSError):  # pragma: no cover
                    pass


class CompiledTrace:
    """A trace interned to dense content ids: a name table plus shards."""

    def __init__(
        self,
        names: Sequence[Name],
        n_requests: int,
        shards: Sequence[TraceShard] = (),
    ) -> None:
        #: ``names[content_id]`` -> the interned :class:`Name`.
        self.names = names
        #: Number of requests across all shards.
        self.n_requests = n_requests
        self._shards = tuple(shards)
        #: Per-process memo of content-marking bitmaps (rule key ->
        #: per-name bool array), filled by :mod:`repro.workload.fast_replay`.
        self.marking_bitmaps: Dict[tuple, np.ndarray] = {}

    @property
    def n_names(self) -> int:
        """Number of distinct content names (the interned vocabulary size)."""
        return len(self.names)

    @property
    def max_hit_rate(self) -> float:
        """1 − unique/total: the unlimited-cache hit-rate ceiling."""
        if not self.n_requests:
            return 0.0
        return 1.0 - self.n_names / self.n_requests

    def iter_shards(self) -> Iterator[TraceShard]:
        """The shards, in request order."""
        return iter(self._shards)

    def iter_uris(self) -> Iterator[str]:
        """``str(names[content_id])`` for every content id, in id order."""
        return map(str, self.names)

    def to_trace(self) -> Trace:
        """Rebuild the exact :class:`Trace` this was compiled from.

        Names, full-precision times and users are all stored, so the
        result replays through the reference :func:`replay` exactly as
        the source trace does.  O(n_requests) in RAM — for the oracle
        path, not for replay at scale.
        """
        names = list(self.names)
        trace = Trace()
        for shard in self.iter_shards():
            for cid, time, user in zip(
                shard.ids.tolist(), shard.times.tolist(), shard.users.tolist()
            ):
                trace.append(Request(time=time, user=user, name=names[cid]))
        return trace


def compile_trace(trace: Trace) -> CompiledTrace:
    """Intern ``trace`` into a one-shard, in-RAM :class:`CompiledTrace`.

    Prefer :meth:`repro.workload.trace.Trace.compile`, which memoizes the
    result on the trace object.
    """
    intern: Dict[Name, int] = {}
    names: List[Name] = []
    counts: List[int] = []  # requests so far per content id
    n = len(trace)
    ids = np.empty(n, dtype=np.int32)
    times = np.empty(n, dtype=np.float64)
    users = np.empty(n, dtype=np.int32)
    occurrence = np.empty(n, dtype=np.int32)
    setdefault = intern.setdefault
    for i, request in enumerate(trace):
        name = request.name
        cid = setdefault(name, len(names))
        if cid == len(names):
            names.append(name)
            counts.append(0)
        ids[i] = cid
        times[i] = request.time
        users[i] = request.user
        occurrence[i] = counts[cid]
        counts[cid] += 1
    shard = TraceShard(
        ids=ids,
        times=times,
        users=users,
        occurrence=occurrence,
        first_occurrence=occurrence == 0,
    )
    return CompiledTrace(tuple(names), n, (shard,))
