"""The sharded SpMSpV engine: schedule, stream, execute, combine.

One multiply over a :class:`~repro.shards.sharded_matrix.ShardedTiledMatrix`
runs four modeled stages, all visible on the device timeline:

1. ``sharded_schedule`` — the scheduler ANDs every shard's tile-column
   occupancy bitmap against the input's active tile columns (per-shard
   metadata read charge);
2. ``shard_load`` (per executed shard, only when the resident set
   faulted) — the load/evict byte traffic of the resident-set manager,
   tagged ``shard=<id>``;
3. ``sharded_spmspv_shard`` (per executed shard) — Algorithm 4 over the
   shard's own tiling via :func:`~repro.core.spmspv_kernels.tiled_kernel`,
   plus the shard's metadata charge, tagged ``shard=<id>``;
4. ``sharded_combine`` — the scatter-gather combiner merging the strip
   outputs through :meth:`~repro.semiring.Semiring.scatter_merge`;
   modeled bytes are exactly ``2 * itemsize * sum(executed strip
   rows)`` (read every strip accumulator once, write it into the global
   result once).  The shard-count-invariance check recomputes this
   formula from the timeline tags and asserts equality.

Per-shard plans are cached in the plan cache under
``("sharded-spmspv", matrix-id, shard-id)``; the entry is pinned while
the shard's kernel is in flight and invalidated when the resident-set
manager evicts the shard.  A plan holds the shard's tiling and
whatever its kernels derive from it (pattern view, SpMM row-tile
imbalance); the tiling's own accessors cache on first use, so a
reloaded shard rebuilds only what its kernel reads again.

Row strips are tile-row aligned, so each output row is produced by
exactly one shard and the combiner merges disjoint ranges into an
identity-filled accumulator — which is why 1-shard and N-shard
execution are bit-identical, not merely numerically close.

With ``REPRO_WORKERS=N`` (or an explicit
:class:`~repro.parallel.ParallelConfig`) the per-shard stage runs on
the worker-pool executor instead of the sequential loop: a cost-model
work scheduler places shards on workers, each worker executes its
queue against its private resident-set slice, and the combiner merges
results as they land.  Launch records are re-emitted in ascending
shard order with ``device=<id>;worker=<id>`` tag parts, so the
timeline (and the production replay log) stays deterministic and
bit-identical to sequential execution modulo those tag parts —
:meth:`ShardedSpMSpV.multi_timeline` re-partitions it into per-device
clocks to price the overlap.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..core.selection import SPMM_MERGE_PATH
from ..core.spmm_kernels import (row_tile_imbalance,
                                 spmm_merge_path_kernel,
                                 spmm_row_warp_kernel)
from ..core.spmspv import apply_output_mask, as_tiled_vector
from ..core.spmspv_kernels import batched_union_kernel, tiled_kernel
from ..errors import ShapeError
from ..gpusim import Device, KernelCounters
from ..runtime import (ExecutionContext, OperatorPlan, PlanCache,
                       default_plan_cache, matrix_token)
from ..semiring import PLUS_TIMES, Semiring
from ..tiles.tiled_matrix import TiledMatrix
from ..tiles.tiled_vector import TiledVector
from ..vectors.sparse_vector import SparseVector
from .scheduler import ShardScheduler
from .sharded_matrix import ShardedTiledMatrix

__all__ = ["ShardedSpMSpV", "spmm_shard_kernel"]

VectorLike = Union[SparseVector, TiledVector, np.ndarray]


def _load_counters(loaded_bytes: int, evicted_bytes: int
                   ) -> KernelCounters:
    """Resident-set traffic of one shard fault: bytes paged in for the
    shard, bytes written back out for whatever its arrival evicted."""
    c = KernelCounters(launches=1)
    c.coalesced_read_bytes += float(loaded_bytes)
    c.coalesced_write_bytes += float(evicted_bytes)
    c.warps = max(1.0, loaded_bytes / (32.0 * 128.0))
    return c


def _combine_counters(merged_rows: int, itemsize: int) -> KernelCounters:
    """The combiner's exact byte formula: every executed strip's
    accumulator is read once and written into the global result once —
    ``2 * itemsize * merged_rows`` total."""
    c = KernelCounters(launches=1)
    c.coalesced_read_bytes += float(merged_rows * itemsize)
    c.coalesced_write_bytes += float(merged_rows * itemsize)
    c.warps = max(1.0, merged_rows / (32.0 * 32.0))
    return c


def _shard_tag(sid: int, caller_tag: Optional[str] = None) -> str:
    """Launch tag of one shard's work.  Callers build it only when the
    context is accounting — the hot loop must not format tag strings
    that no tracer or device will ever see."""
    if caller_tag is None:
        return f"shard={sid}"
    return f"{caller_tag};shard={sid}"


def _pattern_view(tiled: TiledMatrix) -> TiledMatrix:
    """The shard's tiling with all-ones values (same index arrays): a
    multiply under plus_times then counts matched edges per row, which
    is the exact reachability BFS needs regardless of the stored
    values.  ``validate=False`` — the index arrays are the already
    validated ones of the source tiling."""
    return TiledMatrix(
        tiled.shape, tiled.nt, tiled.tile_ptr, tiled.tile_colidx,
        tiled.tile_nnz_ptr, tiled.local_row, tiled.local_col,
        np.ones(tiled.nnz, dtype=np.float64), validate=False)


def spmm_shard_kernel(plan: OperatorPlan, A: TiledMatrix, selector):
    """The SpMM kernel ``selector`` picks for one shard's tiling ``A``
    (row-per-warp vs merge-path on the shard's row-tile imbalance,
    cached on the shard plan: it is a property of the tiling)."""
    imbalance = plan.lazy_get("spmm_imbalance",
                              lambda: row_tile_imbalance(A))
    if selector.choose_spmm(imbalance) == SPMM_MERGE_PATH:
        return spmm_merge_path_kernel
    return spmm_row_warp_kernel


class ShardedSpMSpV:
    """SpMSpV over row-strip shards with out-of-core tile storage.

    Parameters
    ----------
    matrix:
        A prebuilt :class:`~repro.shards.sharded_matrix.ShardedTiledMatrix`
        (its own ``nt`` and sharding win), or any library sparse matrix
        / ndarray, sharded here via
        :meth:`~repro.shards.sharded_matrix.ShardedTiledMatrix.from_coo`.
    nt, n_shards, rows_per_shard, store_dir, budget_bytes:
        Forwarded to ``from_coo`` when ``matrix`` is not already
        sharded.
    semiring:
        The ``(add, mul)`` algebra; default ordinary ``(+, *)``.
    device:
        Optional simulated GPU (or shared
        :class:`~repro.runtime.ExecutionContext`).
    pattern_only:
        Execute each shard over its all-ones pattern view instead of
        its stored values (cached per shard plan).  The BFS loop sets
        this: reachability must not depend on stored values cancelling.
    parallel:
        ``None`` (default) reads ``REPRO_WORKERS`` /
        ``REPRO_WORKERS_BACKEND`` on every multiply; an ``int`` is a
        fixed worker count; a
        :class:`~repro.parallel.ParallelConfig` pins everything.
        Worker counts above 1 route the per-shard stage through the
        pool executor — results stay bit-identical to sequential.
    """

    def __init__(self, matrix, nt: int = 16,
                 semiring: Semiring = PLUS_TIMES,
                 device: Optional[Device] = None,
                 n_shards: int = 2,
                 rows_per_shard: Optional[int] = None,
                 store_dir=None,
                 budget_bytes: Optional[int] = None,
                 plan_cache: Optional[PlanCache] = None,
                 pattern_only: bool = False,
                 parallel=None):
        self.semiring = semiring
        self.pattern_only = bool(pattern_only)
        self.ctx = ExecutionContext.wrap(device,
                                         operator="sharded-spmspv")
        if isinstance(matrix, ShardedTiledMatrix):
            self.matrix = matrix
        else:
            self.matrix = ShardedTiledMatrix.from_coo(
                matrix, nt=nt,
                n_shards=None if rows_per_shard is not None else n_shards,
                rows_per_shard=rows_per_shard, store_dir=store_dir,
                budget_bytes=budget_bytes)
        self.cache = plan_cache if plan_cache is not None \
            else default_plan_cache()
        self.scheduler = ShardScheduler(self.matrix)
        self.matrix.resident.evict_callbacks.append(
            self._invalidate_plan)
        if parallel is not None:
            # validate eagerly; None stays None so the env is re-read
            # on every multiply (tests monkeypatch REPRO_WORKERS)
            from ..parallel.config import ParallelConfig
            parallel = ParallelConfig.coerce(parallel)
        self._parallel_arg = parallel
        self._pcfg = None
        self._work = None
        self._executor = None
        self._last_plan = None

    # ------------------------------------------------------------------
    @property
    def device(self) -> Optional[Device]:
        return self.ctx.device

    @device.setter
    def device(self, device) -> None:
        if isinstance(device, ExecutionContext):
            self.ctx = device.scoped("sharded-spmspv")
        else:
            self.ctx.device = device

    @property
    def shape(self):
        return self.matrix.shape

    @property
    def nt(self) -> int:
        return self.matrix.nt

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    # ------------------------------------------------------------------
    def _plan_key(self, sid: int):
        return ("sharded-spmspv", matrix_token(self.matrix), sid)

    def _invalidate_plan(self, sid: int) -> None:
        self.cache.remove(self._plan_key(sid))

    def _shard_plan(self, sid: int, tiled: TiledMatrix) -> OperatorPlan:
        key = self._plan_key(sid)
        return self.cache.get_or_build(
            key,
            lambda: OperatorPlan(
                kind="sharded-spmspv", key=key, data={"tiled": tiled}),
            pin=self.matrix)

    def _execution_tiling(self, plan: OperatorPlan) -> TiledMatrix:
        if not self.pattern_only:
            return plan.data["tiled"]
        return plan.lazy_get(
            "pattern", lambda: _pattern_view(plan.data["tiled"]))

    def _fault_shard(self, sid: int,
                     tag: Optional[str]) -> TiledMatrix:
        """Bring the shard resident, charging any load/evict traffic."""
        tiled, loaded, evicted = self.matrix.shard(sid)
        if loaded or evicted:
            self.ctx.launch("shard_load",
                            _load_counters(loaded, evicted),
                            tag=tag, phase="load")
        return tiled

    def _as_tiled_vector(self, x: VectorLike) -> TiledVector:
        return as_tiled_vector(x, self.matrix.nt,
                               float(self.semiring.add_identity),
                               dtype=self.semiring.dtype)

    # ------------------------------------------------------------------
    # parallel execution
    # ------------------------------------------------------------------
    @property
    def parallel(self):
        """The resolved :class:`~repro.parallel.ParallelConfig` for the
        next multiply (reads the environment when none was pinned)."""
        from ..parallel.config import ParallelConfig
        return (self._parallel_arg if self._parallel_arg is not None
                else ParallelConfig.from_env())

    def _ensure_parallel(self, cfg):
        """(Re)build the work scheduler and pool executor for ``cfg``."""
        if self._executor is not None and self._pcfg == cfg:
            return
        if self._executor is not None:
            self._executor.close()
        from ..parallel.executor import ParallelExecutor
        from ..parallel.work import WorkScheduler
        self._work = WorkScheduler(self.matrix, cfg.workers,
                                   affinity=cfg.affinity)
        self._executor = ParallelExecutor(
            self.matrix, cfg, self.semiring, self.pattern_only,
            plan_cache=self.cache,
            plan_token=matrix_token(self.matrix))
        self._pcfg = cfg

    def seed_affinity_from_residency(self) -> int:
        """Seed the planner's sticky map from current slice residency,
        so the next plan routes shards to the workers already holding
        their pages (the BatchQueue's shard-affinity routing hook).
        Returns how many shard→worker preferences were seeded."""
        if self._executor is None or self._work is None:
            return 0
        seeded = 0
        for slc in self._executor.slices:
            for sid in slc.resident.resident_ids:
                self._work.seed_affinity(sid, slc.wid)
                seeded += 1
        return seeded

    def _execute_parallel(self, executed, active_tile_cols, xts,
                          targets, batched: bool, accounting: bool,
                          caller_tag: Optional[str],
                          spmm_selector=None) -> None:
        """Run the per-shard stage on the worker pool.

        Results merge into ``targets`` (one accumulator per input
        vector) the moment they land — order-independent because row
        strips are disjoint.  Launch records are then re-emitted in
        ascending shard order, so the timeline is deterministic and
        identical to the sequential engine's modulo the ``device=`` /
        ``worker=`` tag parts.

        With ``spmm_selector`` set, ``xts`` holds one dense block and
        each shard result ships a 2-D row slab — assigned (not
        scatter-merged) into the block accumulator, since every output
        row belongs to exactly one strip.
        """
        sr = self.semiring
        plan = self._work.plan(executed, active_tile_cols)
        self._last_plan = plan
        results = {}
        for res in self._executor.run(plan, xts, batched,
                                      with_counters=accounting,
                                      spmm_selector=spmm_selector):
            lo, _hi = self.matrix.strips[res.sid]
            for b, (idx, vals) in enumerate(res.outs):
                if idx.size:
                    if vals.ndim == 2:
                        targets[b][idx + lo] = vals
                    else:
                        sr.scatter_merge(targets[b], idx + lo, vals)
            results[res.sid] = res
        if not accounting:
            return
        if spmm_selector is not None:
            name, phase = "sharded_spmm_shard", "spmm"
        elif batched:
            name, phase = "sharded_spmspv_batch", "batch"
        else:
            name, phase = "sharded_spmspv_shard", "multiply"
        meta_bytes = float(self.matrix.metadata_nbytes_per_shard())
        for sid in sorted(results):
            res = results[sid]
            tag = (f"{_shard_tag(sid, caller_tag)}"
                   f";device={res.device};worker={res.worker}")
            if res.loaded or res.evicted:
                self.ctx.launch("shard_load",
                                _load_counters(res.loaded, res.evicted),
                                tag=tag, phase="load")
            counters = res.counters
            counters.coalesced_read_bytes += meta_bytes
            self.ctx.launch(name, counters, tag=tag, phase=phase)

    def multi_timeline(self, n_devices: Optional[int] = None):
        """The multi-device view of the recorded timeline.

        Re-partitions the context's launch records by their
        ``device=`` tags (see
        :meth:`~repro.gpusim.MultiDeviceTimeline.from_device`); in
        production mode the replay log is priced first, so deferred
        per-worker counters land on the merged timeline identically.
        """
        from ..gpusim import MultiDeviceTimeline
        if self.ctx.production:
            dev = self.ctx.replay()
        else:
            dev = self.ctx.device
        if dev is None:
            raise ValueError("multi_timeline needs a device-attached "
                             "or production context")
        return MultiDeviceTimeline.from_device(dev, n_devices)

    # ------------------------------------------------------------------
    def multiply(self, x: VectorLike, output: str = "sparse",
                 mask: Optional[VectorLike] = None,
                 mask_complement: bool = False,
                 ) -> Union[SparseVector, TiledVector, np.ndarray]:
        """Compute ``y = A x`` across the executed shards.

        Same contract as :meth:`repro.core.TileSpMSpV.multiply`
        (output modes, masking) — callers switch matrix type, not API.
        """
        if output not in ("sparse", "tiled", "dense"):
            raise ShapeError(f"unknown output mode {output!r}")
        sr = self.semiring
        m, n = self.matrix.shape
        xt = self._as_tiled_vector(x)
        if xt.n != n:
            raise ShapeError(
                f"SpMSpV shape mismatch: A is {self.matrix.shape}, "
                f"x has length {xt.n}"
            )
        accounting = self.ctx.accounting
        active_cols = np.flatnonzero(xt.x_ptr >= 0)
        executed = self.scheduler.schedule(active_cols)
        if accounting:
            self.ctx.launch("sharded_schedule",
                            self.scheduler.schedule_counters(),
                            phase="schedule")

        y = np.full(m, sr.add_identity, dtype=sr.dtype)
        merged_rows = int(sum(hi - lo for lo, hi in
                              (self.matrix.strips[int(s)]
                               for s in executed)))
        cfg = self.parallel
        if cfg.workers > 1 and executed.size:
            self._ensure_parallel(cfg)
            self._execute_parallel(executed, active_cols, [xt], [y],
                                   batched=False,
                                   accounting=accounting,
                                   caller_tag=None)
        else:
            for sid in executed:
                sid = int(sid)
                # counters stay inline even in production (launch
                # defers the priced record): replaying them later would
                # have to re-fault evicted shards
                tag = _shard_tag(sid) if accounting else None
                tiled = self._fault_shard(sid, tag)
                key = self._plan_key(sid)
                plan = self._shard_plan(sid, tiled)
                self.cache.pin(key)
                self.matrix.resident.pin(sid)
                try:
                    A = self._execution_tiling(plan)
                    y_strip, counters = tiled_kernel(
                        A, xt, semiring=sr, with_counters=accounting)
                    if accounting:
                        counters.coalesced_read_bytes += float(
                            self.matrix.metadata_nbytes_per_shard())
                        self.ctx.launch("sharded_spmspv_shard",
                                        counters, tag=tag,
                                        phase="multiply")
                finally:
                    self.matrix.resident.unpin(sid)
                    self.cache.unpin(key)
                lo, _hi = self.matrix.strips[sid]
                idx = np.flatnonzero(~sr.is_identity(y_strip))
                if idx.size:
                    sr.scatter_merge(y, idx + lo, y_strip[idx])
        if accounting:
            self.ctx.launch(
                "sharded_combine",
                _combine_counters(merged_rows, y.dtype.itemsize),
                phase="combine")

        if mask is not None:
            y = apply_output_mask(y, mask, mask_complement, sr, self.ctx)
        if output == "dense":
            return y
        idx = np.flatnonzero(~sr.is_identity(y))
        sv = SparseVector(m, idx, y[idx])
        if output == "sparse":
            return sv
        return TiledVector.from_sparse(sv.indices, sv.values, sv.n,
                                       self.matrix.nt,
                                       fill=float(sr.add_identity),
                                       dtype=sr.dtype)

    def multiply_batch(self, xs, output: str = "sparse",
                       tag: Optional[str] = None):
        """Batched multiply: one scheduling pass over the *union* of
        the batch's active tile columns, one
        :func:`~repro.core.spmspv_kernels.batched_union_kernel` launch
        per executed shard, one combiner for the whole batch."""
        if output not in ("sparse", "dense"):
            raise ShapeError(f"unknown output mode {output!r}")
        sr = self.semiring
        m, n = self.matrix.shape
        xts = [self._as_tiled_vector(x) for x in xs]
        if not xts:
            raise ShapeError("batched SpMSpV needs at least one vector")
        for xt in xts:
            if xt.n != n:
                raise ShapeError(
                    f"SpMSpV shape mismatch: A is {self.matrix.shape}, "
                    f"x has length {xt.n}"
                )
        union_active = np.zeros(xts[0].x_ptr.shape[0], dtype=bool)
        for xt in xts:
            union_active |= xt.x_ptr >= 0
        accounting = self.ctx.accounting
        executed = self.scheduler.schedule(np.flatnonzero(union_active))
        if accounting:
            self.ctx.launch("sharded_schedule",
                            self.scheduler.schedule_counters(), tag=tag,
                            phase="schedule")

        k = len(xts)
        Y = np.full((k, m), sr.add_identity, dtype=sr.dtype)
        merged_rows = int(sum(hi - lo for lo, hi in
                              (self.matrix.strips[int(s)]
                               for s in executed)))
        cfg = self.parallel
        if cfg.workers > 1 and executed.size:
            self._ensure_parallel(cfg)
            self._execute_parallel(executed,
                                   np.flatnonzero(union_active),
                                   xts, [Y[b] for b in range(k)],
                                   batched=True, accounting=accounting,
                                   caller_tag=tag)
        else:
            for sid in executed:
                sid = int(sid)
                shard_tag = _shard_tag(sid, tag) if accounting else None
                tiled = self._fault_shard(sid, shard_tag)
                key = self._plan_key(sid)
                plan = self._shard_plan(sid, tiled)
                self.cache.pin(key)
                self.matrix.resident.pin(sid)
                try:
                    A = self._execution_tiling(plan)
                    Ys, counters = batched_union_kernel(A, xts,
                                                        semiring=sr)
                    if accounting:
                        counters.coalesced_read_bytes += float(
                            self.matrix.metadata_nbytes_per_shard())
                        self.ctx.launch("sharded_spmspv_batch",
                                        counters, tag=shard_tag,
                                        phase="batch")
                finally:
                    self.matrix.resident.unpin(sid)
                    self.cache.unpin(key)
                lo, _hi = self.matrix.strips[sid]
                for b in range(k):
                    idx = np.flatnonzero(~sr.is_identity(Ys[b]))
                    if idx.size:
                        sr.scatter_merge(Y[b], idx + lo, Ys[b][idx])
        if accounting:
            self.ctx.launch(
                "sharded_combine",
                _combine_counters(merged_rows * k, Y.dtype.itemsize),
                tag=tag, phase="combine")

        if output == "dense":
            return Y
        out: List[SparseVector] = []
        for b in range(k):
            idx = np.flatnonzero(~sr.is_identity(Y[b]))
            out.append(SparseVector(m, idx, Y[b][idx]))
        return out

    def multiply_block(self, X, output: str = "dense",
                       tag: Optional[str] = None, selector=None):
        """SpMM strip by strip: one scheduling pass over the union of
        the block's active tile columns, one selector-chosen SpMM
        kernel launch per executed shard (``sharded_spmm_shard``), one
        combiner for the whole ``(m, B)`` result.

        Row strips are disjoint, so each shard's 2-D row slab is
        *assigned* into the identity-filled accumulator — which is why
        1-shard, N-shard, and multi-worker execution are all
        bit-identical to each other, and column ``j`` of the result is
        bit-identical to :meth:`multiply` on column ``j`` of the block.
        """
        from ..core.selection import KernelSelector
        from ..core.spmm import as_dense_block
        if output not in ("dense", "sparse"):
            raise ShapeError(f"unknown output mode {output!r}")
        if selector is None:
            selector = KernelSelector()
        sr = self.semiring
        m, n = self.matrix.shape
        Xb = as_dense_block(X, self.matrix.nt,
                            float(sr.add_identity), dtype=sr.dtype)
        if Xb.n != n:
            raise ShapeError(
                f"SpMM shape mismatch: A is {self.matrix.shape}, "
                f"X has {Xb.n} rows"
            )
        accounting = self.ctx.accounting
        # a tile column is active when any column of the block has a
        # non-sentinel value in it — the same activity test the SpMM
        # fold applies per column, unioned across the block
        tiles = Xb.data.reshape(-1, Xb.nt, Xb.B)
        if np.isnan(Xb.fill):  # pragma: no cover - defensive
            active = np.any(~np.isnan(tiles), axis=(1, 2))
        else:
            active = np.any(tiles != Xb.fill, axis=(1, 2))
        active_cols = np.flatnonzero(active)
        executed = self.scheduler.schedule(active_cols)
        if accounting:
            self.ctx.launch("sharded_schedule",
                            self.scheduler.schedule_counters(), tag=tag,
                            phase="schedule")

        Y = np.full((m, Xb.B), sr.add_identity, dtype=sr.dtype)
        merged_rows = int(sum(hi - lo for lo, hi in
                              (self.matrix.strips[int(s)]
                               for s in executed)))
        cfg = self.parallel
        if cfg.workers > 1 and executed.size:
            self._ensure_parallel(cfg)
            self._execute_parallel(executed, active_cols, [Xb], [Y],
                                   batched=False,
                                   accounting=accounting,
                                   caller_tag=tag,
                                   spmm_selector=selector)
        else:
            for sid in executed:
                sid = int(sid)
                shard_tag = _shard_tag(sid, tag) if accounting else None
                tiled = self._fault_shard(sid, shard_tag)
                key = self._plan_key(sid)
                plan = self._shard_plan(sid, tiled)
                self.cache.pin(key)
                self.matrix.resident.pin(sid)
                try:
                    A = self._execution_tiling(plan)
                    fn = spmm_shard_kernel(plan, A, selector)
                    Y_strip, counters = fn(A, Xb, semiring=sr,
                                           with_counters=accounting)
                    if accounting:
                        counters.coalesced_read_bytes += float(
                            self.matrix.metadata_nbytes_per_shard())
                        self.ctx.launch("sharded_spmm_shard",
                                        counters, tag=shard_tag,
                                        phase="spmm")
                finally:
                    self.matrix.resident.unpin(sid)
                    self.cache.unpin(key)
                lo, _hi = self.matrix.strips[sid]
                idx = np.flatnonzero(
                    np.any(~sr.is_identity(Y_strip), axis=1))
                if idx.size:
                    Y[idx + lo] = Y_strip[idx]
        if accounting:
            self.ctx.launch(
                "sharded_combine",
                _combine_counters(merged_rows * Xb.B,
                                  Y.dtype.itemsize),
                tag=tag, phase="combine")

        if output == "dense":
            return Y
        out: List[SparseVector] = []
        for j in range(Xb.B):
            col = Y[:, j]
            idx = np.flatnonzero(~sr.is_identity(col))
            out.append(SparseVector(m, idx, col[idx].copy()))
        return out

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Scheduler skip counts and resident-set traffic, merged.

        When the pool executor is active, worker-slice traffic (loads,
        hits, evictions, bytes) is summed into the resident-set keys,
        and the work scheduler's placement counters ride along.
        """
        out = dict(self.scheduler.stats())
        res = dict(self.matrix.resident.stats())
        if self._executor is not None:
            ex = self._executor.stats()
            for key in ("loads", "hits", "evictions", "loaded_bytes",
                        "evicted_bytes", "resident_shards",
                        "resident_bytes"):
                res[key] = res.get(key, 0) + ex.get(key, 0)
            out["workers"] = self._executor.workers
            out["backend"] = self._executor.backend
            out.update(self._work.stats())
        out.update(res)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ShardedSpMSpV {self.matrix.shape} "
                f"nt={self.matrix.nt} "
                f"shards={self.matrix.n_shards}>")
