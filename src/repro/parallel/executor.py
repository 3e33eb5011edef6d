"""The worker-pool shard executor: slices, backends, queues.

Each worker owns a :class:`WorkerSlice` — a private attachment of the
shard store (:meth:`~repro.shards.store.DirectoryShardStore.attach`),
its own byte-budgeted :class:`~repro.shards.store.ResidentSetManager`
(``engine budget // workers``), and its own per-shard plans — so
workers share *no* mutable state and a shard's pages stay hot on the
worker that keeps running it (see sticky affinity in
:mod:`repro.parallel.work`).

Each worker runs its queue of one multiply as **one in-order task**:
the shards its slice already holds first, most recently used first,
then the rest in planned order.  Resident hits are taken before any
load of this multiply can evict them, at most ``workers`` tasks are in
flight at once, and nothing runs in the background — so a slice's
load/evict traffic, and every counter downstream of it, depends only
on the sequence of multiplies, never on thread timing.

Three backends behind one ``run()`` generator:

* ``serial`` — the queues execute on the calling thread in worker
  order; the reference the pools are checked against.
* ``thread`` — a process-wide shared
  :class:`~concurrent.futures.ThreadPoolExecutor`, one task per worker;
  results are yielded as tasks land (the asynchronous combine).
* ``process`` — one single-process ``fork``-context
  ``multiprocessing.Pool`` per worker id; each worker process lazily
  builds its slice from a pickled descriptor (the directory store
  ships as its root path and re-attaches).

Whatever the backend, results are **bit-identical** to the sequential
engine: row strips are disjoint, so the combine order cannot change a
single output bit, and each shard's kernel runs on the same tiling the
sequential path would use.  The coordinator re-emits launch records in
ascending shard order, so the modeled timeline (and the production
replay log) is deterministic too — only the ``device=`` / ``worker=``
tag parts say where a shard actually ran.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.spmspv_kernels import batched_union_kernel, tiled_kernel
from ..gpusim import KernelCounters
from ..runtime import OperatorPlan, PlanCache
from ..semiring import Semiring
from ..shards.engine import _pattern_view, spmm_shard_kernel
from ..shards.store import ResidentSetManager
from ..tiles.tiled_matrix import TiledMatrix
from .config import ParallelConfig
from .work import WorkPlan

__all__ = ["ShardResult", "WorkerSlice", "ParallelExecutor"]


@dataclass
class ShardResult:
    """One shard's finished work, as shipped back to the coordinator.

    ``outs`` holds one ``(local_row_idx, values)`` pair per input
    vector — already compressed to non-identity rows, so a process
    backend pickles the strip's answer, not the strip.
    """

    sid: int
    device: int                     # planned worker (the model's clock)
    worker: str                     # who actually ran it (pid / index)
    outs: List[Tuple[np.ndarray, np.ndarray]]
    counters: Optional[KernelCounters]
    loaded: int = 0
    evicted: int = 0


class WorkerSlice:
    """One worker's private store attachment, resident slice, plans."""

    def __init__(self, wid: int, store, budget_bytes: Optional[int],
                 semiring: Semiring, pattern_only: bool,
                 plan_cache: Optional[PlanCache] = None,
                 plan_token=None):
        self.wid = int(wid)
        self.store = store
        self.resident = ResidentSetManager(store, budget_bytes)
        self.resident.evict_callbacks.append(self._drop_plan)
        self.semiring = semiring
        self.pattern_only = bool(pattern_only)
        self.cache = plan_cache
        self.plan_token = plan_token
        self._plans: Dict[int, OperatorPlan] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _plan_key(self, sid: int):
        return ("sharded-spmspv", self.plan_token, sid, "w", self.wid)

    def _drop_plan(self, sid: int) -> None:
        self._plans.pop(sid, None)
        if self.cache is not None:
            self.cache.remove(self._plan_key(sid))

    def _get_plan(self, sid: int, tiled: TiledMatrix) -> OperatorPlan:
        # no eager warming: every accessor a kernel reads caches itself
        # on first use, and a reload rebuilds only what is read again
        def build() -> OperatorPlan:
            return OperatorPlan(kind="sharded-spmspv",
                                key=self._plan_key(sid),
                                data={"tiled": tiled})

        if self.cache is not None:
            plan = self.cache.get_or_build(self._plan_key(sid), build,
                                           pin=self.store)
        else:
            plan = self._plans.get(sid)
            if plan is None:
                plan = build()
        self._plans[sid] = plan
        return plan

    def _execution_tiling(self, plan: OperatorPlan) -> TiledMatrix:
        if not self.pattern_only:
            return plan.data["tiled"]
        return plan.lazy_get(
            "pattern", lambda: _pattern_view(plan.data["tiled"]))

    # ------------------------------------------------------------------
    def streamed(self, sids) -> set:
        """The shards of a queue that stream through this slice
        (loaded, run, evicted) instead of staying resident.

        The smallest shards are kept as long as they leave room for
        the largest of the rest, which then pass through that room one
        at a time.  A queue that fits is kept whole.  The split depends
        only on the queue and the shard sizes, so a repeated queue
        finds the same shards resident and pays the same loads.
        """
        budget = self.resident.budget_bytes
        if budget is None:
            return set()
        by_size = sorted(sids, key=lambda s: (self.store.nbytes(s), s))
        sizes = [self.store.nbytes(s) for s in by_size]
        kept = 0
        for i, nbytes in enumerate(sizes):
            largest_rest = sizes[-1] if i + 1 < len(sizes) else 0
            if kept + nbytes + largest_rest > budget:
                return set(by_size[i:])
            kept += nbytes
        return set()

    def run_shard(self, sid: int, xts, batched: bool,
                  with_counters: bool, worker_label: str,
                  spmm_selector=None, stream: bool = False
                  ) -> ShardResult:
        """Execute one shard exactly as the sequential engine would.

        ``spmm_selector`` switches the shard into SpMM mode: ``xts``
        then holds one :class:`~repro.vectors.dense_block.DenseBlock`
        and the selector picks row-per-warp vs merge-path on the
        shard's own row-tile imbalance (cached on the shard plan, as
        in the sequential engine).  ``stream`` evicts the shard once
        it has run; its bytes join the shard's own eviction charge.
        """
        sid = int(sid)
        sr = self.semiring
        with self._lock:
            tiled, loaded, evicted = self.resident.get(sid)
            self.resident.pin(sid)
        key = self._plan_key(sid)
        try:
            plan = self._get_plan(sid, tiled)
            if self.cache is not None:
                self.cache.pin(key)
            try:
                A = self._execution_tiling(plan)
                if spmm_selector is not None:
                    fn = spmm_shard_kernel(plan, A, spmm_selector)
                    Yb, counters = fn(A, xts[0], semiring=sr,
                                      with_counters=with_counters)
                    Ys = [Yb]
                elif batched:
                    Ys, counters = batched_union_kernel(
                        A, xts, semiring=sr)
                else:
                    y, counters = tiled_kernel(
                        A, xts[0], semiring=sr,
                        with_counters=with_counters)
                    Ys = [y]
            finally:
                if self.cache is not None:
                    self.cache.unpin(key)
        finally:
            with self._lock:
                self.resident.unpin(sid)
                if stream:
                    evicted += self.resident.evict(sid)
        outs = []
        for y_strip in Ys:
            if y_strip.ndim == 2:
                # SpMM strip: ship whole non-identity rows
                idx = np.flatnonzero(
                    np.any(~sr.is_identity(y_strip), axis=1))
            else:
                idx = np.flatnonzero(~sr.is_identity(y_strip))
            outs.append((idx, y_strip[idx]))
        return ShardResult(
            sid=sid, device=self.wid, worker=worker_label, outs=outs,
            counters=counters if with_counters else None,
            loaded=loaded, evicted=evicted)

    def stats(self) -> Dict[str, int]:
        return self.resident.stats()


# ----------------------------------------------------------------------
# one worker's task (shared by every backend; runs where the slice lives)
# ----------------------------------------------------------------------
def _run_chunk(slc: WorkerSlice, sids, xts, batched: bool,
               with_counters: bool, worker_label: str,
               spmm_selector=None) -> List[ShardResult]:
    """Run one worker's whole queue: the shards its slice keeps first,
    then the streamed ones, each in planned order."""
    streamed = slc.streamed(sids)
    order = ([s for s in sids if s not in streamed]
             + [s for s in sids if s in streamed])
    return [slc.run_shard(sid, xts, batched, with_counters,
                          worker_label, spmm_selector=spmm_selector,
                          stream=sid in streamed)
            for sid in order]


# ----------------------------------------------------------------------
# shared thread pool (thread backend)
# ----------------------------------------------------------------------
#: One process-wide pool serves every thread-backend executor.  Worker
#: identity lives in the WorkerSlice an executor hands each task, not
#: in which OS thread runs it, so sharing threads is semantically
#: neutral — and it avoids spawning (then GC-finalizing) a pool per
#: engine, which under an env-wide REPRO_WORKERS setting meant
#: thousands of short-lived threads per test run and a rare
#: Thread.start()-during-GC deadlock.
_THREAD_POOL = None
_THREAD_POOL_SIZE = 16
_THREAD_POOL_GUARD = threading.Lock()


def _shared_thread_pool():
    global _THREAD_POOL
    with _THREAD_POOL_GUARD:
        if _THREAD_POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _THREAD_POOL = ThreadPoolExecutor(
                max_workers=_THREAD_POOL_SIZE,
                thread_name_prefix="repro-shard")
        return _THREAD_POOL


# ----------------------------------------------------------------------
# process backend plumbing (module-level for picklability)
# ----------------------------------------------------------------------
_PROC_PAYLOAD: Optional[dict] = None
_PROC_SLICES: Dict[int, WorkerSlice] = {}


def _process_init(payload: dict) -> None:
    global _PROC_PAYLOAD
    _PROC_PAYLOAD = payload
    _PROC_SLICES.clear()


def _process_slice(wid: int) -> WorkerSlice:
    slc = _PROC_SLICES.get(wid)
    if slc is None:
        p = _PROC_PAYLOAD
        slc = WorkerSlice(wid, p["store"].attach(), p["budget"],
                          p["semiring"], p["pattern_only"],
                          plan_cache=None, plan_token=p["plan_token"])
        _PROC_SLICES[wid] = slc
    return slc


def _process_queue(task) -> Tuple[List[ShardResult], Tuple[int, int],
                                  Dict[str, int]]:
    wid, sids, xts, batched, with_counters, spmm_selector = task
    slc = _process_slice(wid)
    # the worker label is the stable scheduler worker id, not the OS
    # pid: launch tags must be deterministic run to run so production
    # replay and the parallel-invariance check can compare them; the
    # real pid travels back in the snapshot key below.
    results = _run_chunk(slc, sids, xts, batched, with_counters,
                         worker_label=str(wid),
                         spmm_selector=spmm_selector)
    return results, (os.getpid(), wid), slc.stats()


# ----------------------------------------------------------------------
class ParallelExecutor:
    """Dispatches a :class:`~repro.parallel.work.WorkPlan` over a pool.

    Owns the worker slices (in-process backends) or the process pools
    and their slice descriptor (process backend).  ``run()`` is a
    generator yielding :class:`ShardResult` task by task — the
    coordinator merges each result into the output accumulator right
    away and re-orders only the *launch records*, never the data.
    """

    def __init__(self, matrix, config: ParallelConfig,
                 semiring: Semiring, pattern_only: bool,
                 plan_cache: Optional[PlanCache] = None,
                 plan_token=None):
        self.matrix = matrix
        self.config = config
        self.workers = config.workers
        self.backend = config.resolved_backend(matrix.store)
        self.semiring = semiring
        self.pattern_only = bool(pattern_only)
        budget = config.slice_budget(matrix.resident.budget_bytes)
        self.tasks = 0
        self.results = 0
        self._slice_snapshots: Dict[Tuple[int, int], Dict[str, int]] = {}
        self._pools: List = []
        self.slices: List[WorkerSlice] = []
        if self.backend != "process":
            self.slices = [
                WorkerSlice(w, matrix.store.attach(), budget, semiring,
                            pattern_only, plan_cache=plan_cache,
                            plan_token=plan_token)
                for w in range(self.workers)]
        else:
            self._payload = {"store": matrix.store, "budget": budget,
                             "semiring": semiring,
                             "pattern_only": bool(pattern_only),
                             "plan_token": plan_token}

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self.backend == "process" and not self._pools:
            import multiprocessing
            ctx = multiprocessing.get_context("fork")
            # one dedicated single-process pool per worker id: a
            # shared pool would hand queues to arbitrary processes, so
            # which slice's resident set a shard warms (and hence the
            # shard_load launch stream) would vary run to run.
            self._pools = [ctx.Pool(1, initializer=_process_init,
                                    initargs=(self._payload,))
                           for _ in range(self.workers)]

    def _worker_results(self, plan: WorkPlan, xts, batched: bool,
                        with_counters: bool, spmm_selector
                        ) -> Iterator[List[ShardResult]]:
        queues = [(w, sids) for w, sids in enumerate(plan.per_worker)
                  if sids]
        self.tasks += len(queues)
        if self.backend == "serial":
            for w, sids in queues:
                yield _run_chunk(self.slices[w], sids, xts, batched,
                                 with_counters, str(w), spmm_selector)
        elif self.backend == "thread":
            from concurrent.futures import as_completed
            spawn = _shared_thread_pool().submit
            futs = [spawn(_run_chunk, self.slices[w], sids, xts,
                          batched, with_counters, str(w), spmm_selector)
                    for w, sids in queues]
            for fut in as_completed(futs):
                yield fut.result()
        else:
            self._ensure_pool()
            pending = [self._pools[w].apply_async(
                           _process_queue,
                           ((w, sids, xts, batched, with_counters,
                             spmm_selector),))
                       for w, sids in queues]
            for ar in pending:
                results, key, snap = ar.get()
                self._slice_snapshots[key] = snap
                yield results

    def run(self, plan: WorkPlan, xts, batched: bool,
            with_counters: bool,
            spmm_selector=None) -> Iterator[ShardResult]:
        """Execute the plan; yield each worker task's results once the
        task finishes (thread backend: in completion order)."""
        for results in self._worker_results(plan, xts, batched,
                                            with_counters, spmm_selector):
            self.results += len(results)
            yield from results

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Aggregated slice traffic (summed across workers)."""
        snaps = ([s.stats() for s in self.slices]
                 or list(self._slice_snapshots.values()))
        keys = ("loads", "hits", "evictions", "loaded_bytes",
                "evicted_bytes", "resident_shards", "resident_bytes")
        out = {k: sum(int(s.get(k, 0)) for s in snaps) for k in keys}
        out["tasks"] = self.tasks
        out["results"] = self.results
        pids = sorted({pid for pid, _ in self._slice_snapshots})
        if pids:
            out["worker_pids"] = pids
        return out

    def close(self) -> None:
        for pool in self._pools:
            pool.terminate()
            pool.join()
        self._pools = []

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ParallelExecutor backend={self.backend} "
                f"workers={self.workers}>")
