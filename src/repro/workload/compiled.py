"""Interned (compiled) traces: the fast-replay input format.

A :class:`~repro.workload.trace.Trace` stores one :class:`Request` object
per request, keyed by hierarchical :class:`~repro.ndn.name.Name`s — ideal
for inspection, slow to replay.  Compiling a trace interns every distinct
name to a dense ``int32`` content id **once**, after which the replay
kernel (:mod:`repro.workload.fast_replay`) and the sweep runner
(:mod:`repro.perf.parallel`) work entirely on flat arrays:

* ``ids[i]``   — content id of request ``i`` (dense, 0..n_names-1, in
  first-appearance order),
* ``times[i]`` — request timestamp in ms,
* ``users[i]`` — requesting user id,
* ``first_occurrence[i]`` — True iff request ``i`` is the first request
  for its content id (the compulsory-miss positions; their count is the
  unique-object count).

The compiled form is cached on the trace (see :meth:`Trace.compile`), so
sweeping S schemes × C cache sizes pays the interning cost once, not
S × C times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ndn.name import Name


@dataclass(frozen=True, eq=False)
class CompiledTrace:
    """A trace interned to dense integer content ids (replay fast path)."""

    #: Content id per request, in trace order (int32).
    ids: np.ndarray
    #: Request timestamps in ms, in trace order (float64).
    times: np.ndarray
    #: Requesting user per request (int32).
    users: np.ndarray
    #: ``names[content_id]`` -> the interned :class:`Name`.
    names: Tuple[Name, ...]
    #: True at the first request of each content id (compulsory misses).
    first_occurrence: np.ndarray
    #: Lazily computed per-request occurrence index (see property).
    _occurrence_index: List[Optional[np.ndarray]] = field(
        default_factory=lambda: [None], repr=False, compare=False
    )
    #: Per-process memo of content-marking bitmaps (rule key -> per-name
    #: bool array), filled by :mod:`repro.workload.fast_replay`.
    marking_bitmaps: Dict[tuple, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def n_requests(self) -> int:
        """Number of requests in the trace."""
        return int(self.ids.shape[0])

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

    @property
    def occurrence_index(self) -> np.ndarray:
        """Per-request running count of prior requests for the same id.

        ``occurrence_index[i] == k`` means request ``i`` is the (k+1)-th
        request for its content — exactly the ``request_index`` the
        reference replay hands to :meth:`MarkingRule.is_private`.
        Computed on first use (vectorized) and cached.
        """
        cached = self._occurrence_index[0]
        if cached is None:
            cached = _occurrence_index(self.ids, self.n_names)
            self._occurrence_index[0] = cached
        return cached


def _occurrence_index(ids: np.ndarray, n_names: int) -> np.ndarray:
    """Vectorized per-id running occurrence counter."""
    n = ids.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int32)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    # Start offset of each id-run within the stable sort.
    run_start = np.zeros(n, dtype=np.int64)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=new_run[1:])
    run_start[new_run] = np.flatnonzero(new_run)
    np.maximum.accumulate(run_start, out=run_start)
    occurrence = np.empty(n, dtype=np.int32)
    occurrence[order] = (np.arange(n, dtype=np.int64) - run_start).astype(np.int32)
    return occurrence


def compile_trace(trace: "Trace") -> CompiledTrace:  # noqa: F821
    """Intern ``trace`` into a :class:`CompiledTrace`.

    Prefer :meth:`repro.workload.trace.Trace.compile`, which memoizes the
    result on the trace object.
    """
    intern: Dict[Name, int] = {}
    names: List[Name] = []
    n = len(trace)
    ids = np.empty(n, dtype=np.int32)
    times = np.empty(n, dtype=np.float64)
    users = np.empty(n, dtype=np.int32)
    first = np.zeros(n, dtype=bool)
    setdefault = intern.setdefault
    for i, request in enumerate(trace):
        name = request.name
        cid = setdefault(name, len(names))
        if cid == len(names):
            names.append(name)
            first[i] = True
        ids[i] = cid
        times[i] = request.time
        users[i] = request.user
    return CompiledTrace(
        ids=ids,
        times=times,
        users=users,
        names=tuple(names),
        first_occurrence=first,
    )
