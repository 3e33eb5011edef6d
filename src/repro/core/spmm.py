"""The TileSpMM engine: sparse matrix × tall dense block.

Where :class:`~repro.core.BatchedSpMSpV` unions the active tiles of
``B`` *sparse* vectors, :class:`TileSpMM` targets the next regime on
the roadmap — a dense block of ``B`` columns (multi-personalization
PageRank, label/feature propagation), where every tile column is
active and tile skipping buys nothing.  The wins move to:

* **A-side amortisation** — tile metadata and payload stream from
  global memory once per block, not once per column;
* **row-major reuse** — one nonzero multiplies a contiguous ``B``-wide
  row of the block; the merge-path kernel stages each distinct row
  segment once (``B`` values per *segment*, not per nonzero);
* **load balancing** — :class:`~repro.core.KernelSelector.choose_spmm`
  switches between the naive row-per-warp kernel and the merge-path
  kernel on the occupied-row-tile nonzero imbalance.

Column ``j`` of the result is bit-identical to
``TileSpMSpV.multiply(column j)`` — the column-slice verify check and
the batched-equivalence property test enforce this across semirings.

The engine shares its preprocessing plan (hybrid tiling + indexed COO
side) with ``TileSpMSpV`` / ``BatchedSpMSpV`` through the plan cache,
so building any of the three over one matrix tiles it once.  A
:class:`~repro.shards.sharded_matrix.ShardedTiledMatrix` dispatches
strip by strip through :class:`~repro.shards.engine.ShardedSpMSpV`
(including the multi-worker parallel path).
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from ..errors import ShapeError, TileError
from ..formats.coo import COOMatrix
from ..gpusim import Device
from ..runtime import ExecutionContext, PlanCache, default_plan_cache, \
    matrix_token
from ..semiring import PLUS_TIMES, Semiring
from ..tiles.extraction import HybridTiledMatrix
from ..tiles.tiled_matrix import TiledMatrix
from ..tiles.tiled_vector import SUPPORTED_TILE_SIZES
from ..vectors.dense_block import DenseBlock
from ..vectors.sparse_vector import SparseVector
from .selection import SPMM_MERGE_PATH, KernelSelector
from .spmspv import VectorLike, _build_spmspv_plan, _spmspv_plan
from .spmm_kernels import (row_tile_imbalance, spmm_coo_side_kernel,
                           spmm_merge_path_kernel, spmm_row_warp_kernel)

__all__ = ["TileSpMM", "as_dense_block"]

BlockLike = Union[DenseBlock, np.ndarray, list, tuple]


def as_dense_block(X: BlockLike, nt: int, fill: float,
                   dtype=None) -> DenseBlock:
    """Coerce any accepted block form to a :class:`DenseBlock`.

    Accepts a prebuilt block (tile size must match), a dense ``(n, B)``
    array, or a sequence of sparse vectors (densified column by column
    with the same scatter the tiled vector uses, so values stay
    bit-identical to the batched engine's operands).
    """
    if isinstance(X, DenseBlock):
        if X.nt != nt:
            return DenseBlock.from_dense(X.to_dense(), nt, fill=fill,
                                         dtype=X.data.dtype)
        return X
    if isinstance(X, np.ndarray):
        return DenseBlock.from_dense(X, nt, fill=fill, dtype=dtype)
    if isinstance(X, (list, tuple)):
        if len(X) and isinstance(X[0], np.ndarray):
            return DenseBlock.from_dense(np.column_stack(X), nt,
                                         fill=fill, dtype=dtype)
        return DenseBlock.from_sparse_vectors(X, nt, fill=fill,
                                              dtype=dtype)
    raise ShapeError(f"cannot build a DenseBlock from {type(X).__name__}")


class TileSpMM:
    """Prepared SpMM operator for one sparse matrix.

    Parameters
    ----------
    matrix:
        Any library sparse matrix, an already-built
        :class:`~repro.tiles.extraction.HybridTiledMatrix` /
        :class:`~repro.tiles.tiled_matrix.TiledMatrix`, or a
        :class:`~repro.shards.sharded_matrix.ShardedTiledMatrix`
        (strip-by-strip execution, parallel-capable).
    nt:
        Tile size (16/32/64 per the paper; small powers of two for
        testing).
    extract_threshold:
        Very-sparse-tile COO extraction threshold (paper §3.2.1).
    semiring:
        The ``(add, mul)`` algebra applied to every column.
    device:
        Optional simulated GPU (or a shared
        :class:`~repro.runtime.ExecutionContext`).
    selector:
        :class:`~repro.core.KernelSelector` arbitrating row-per-warp
        vs merge-path (``KernelSelector.fixed("spmm_merge_path")``
        forces one kernel for benchmarks/grids).
    plan_cache:
        Plan cache override; the key matches ``TileSpMSpV(mode="csr")``
        over the same matrix, so all three engines share one tiling.
    """

    def __init__(self, matrix, nt: int = 16, extract_threshold: int = 2,
                 semiring: Semiring = PLUS_TIMES,
                 device: Optional[Device] = None,
                 selector: Optional[KernelSelector] = None,
                 plan_cache: Optional[PlanCache] = None,
                 parallel=None):
        if nt not in SUPPORTED_TILE_SIZES:
            raise TileError(
                f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
            )
        self.semiring = semiring
        self.selector = selector if selector is not None \
            else KernelSelector()
        self.ctx = ExecutionContext.wrap(device, operator="tilespmm")
        # deferred import: repro.shards imports core helpers
        from ..shards.sharded_matrix import ShardedTiledMatrix
        if isinstance(matrix, ShardedTiledMatrix):
            from ..shards.engine import ShardedSpMSpV
            self._sharded: Optional[ShardedSpMSpV] = ShardedSpMSpV(
                matrix, semiring=semiring, device=self.ctx,
                plan_cache=plan_cache, parallel=parallel)
            self._plan = None
            self.hybrid = None
            self._side_index = None
            return
        self._sharded = None
        if isinstance(matrix, HybridTiledMatrix):
            self._plan = _spmspv_plan(matrix)
        elif isinstance(matrix, TiledMatrix):
            self._plan = _spmspv_plan(HybridTiledMatrix(
                tiled=matrix,
                side=COOMatrix.empty(matrix.shape),
                threshold=0,
            ))
        else:
            cache = plan_cache if plan_cache is not None \
                else default_plan_cache()
            # same key as TileSpMSpV(mode="csr"): one tiling serves all
            key = ("tilespmspv", matrix_token(matrix), nt,
                   extract_threshold, semiring, "csr")
            self._plan = cache.get_or_build(
                key,
                lambda: _build_spmspv_plan(matrix, nt, extract_threshold,
                                           key),
                pin=matrix)
        self.hybrid = self._plan.data["hybrid"]
        self._side_index = self._plan.data["side_index"]

    # ------------------------------------------------------------------
    @property
    def device(self) -> Optional[Device]:
        """The attached simulated GPU (held by the launch context)."""
        return self.ctx.device

    @device.setter
    def device(self, device) -> None:
        if isinstance(device, ExecutionContext):
            self.ctx = device.scoped("tilespmm")
        else:
            self.ctx.device = device
        if self._sharded is not None:
            self._sharded.device = device

    @property
    def shape(self):
        if self._sharded is not None:
            return self._sharded.shape
        return self.hybrid.shape

    @property
    def nt(self) -> int:
        if self._sharded is not None:
            return self._sharded.nt
        return self.hybrid.nt

    @property
    def nnz(self) -> int:
        if self._sharded is not None:
            return self._sharded.nnz
        return self.hybrid.nnz

    # ------------------------------------------------------------------
    def _imbalance(self) -> float:
        """The tiled part's row-tile imbalance, cached on the shared
        plan (the statistic is a property of the tiling, not of any
        input block)."""
        return self._plan.lazy_get(
            "spmm_imbalance",
            lambda: row_tile_imbalance(self.hybrid.tiled))

    def chosen_kernel(self) -> str:
        """Which kernel :meth:`multiply_block` will run (the selector's
        decision for this matrix)."""
        if self._sharded is not None:
            return self.selector.choose_spmm(1.0) if \
                self.selector.forced is not None else "per-shard"
        return self.selector.choose_spmm(self._imbalance())

    def sparsify(self, y_dense: np.ndarray) -> SparseVector:
        """Extract one dense column into a :class:`SparseVector` (the
        same identity-dropping extraction the single-vector path
        performs)."""
        occupied = ~self.semiring.is_identity(y_dense)
        idx = np.flatnonzero(occupied)
        return SparseVector(self.shape[0], idx, y_dense[idx])

    def as_block(self, X: BlockLike) -> DenseBlock:
        """Coerce ``X`` to a :class:`DenseBlock` with this operator's
        tile size, sentinel, and dtype."""
        return as_dense_block(X, self.nt,
                              float(self.semiring.add_identity),
                              dtype=self.semiring.dtype)

    def multiply_block(self, X: BlockLike, output: str = "dense",
                       tag: Optional[str] = None,
                       ) -> Union[np.ndarray, List[SparseVector]]:
        """Compute ``Y = A @ X`` for the whole block in one launch.

        Parameters
        ----------
        X:
            A :class:`DenseBlock`, a dense ``(n, B)`` array, or a
            sequence of sparse vectors (one per column).
        output:
            ``"dense"`` (default) → one ``(m, B)`` ndarray;
            ``"sparse"`` → list of per-column :class:`SparseVector`.
        tag:
            Optional tag forwarded to the launch records.
        """
        if output not in ("dense", "sparse"):
            raise ShapeError(f"unknown output mode {output!r}")
        if self._sharded is not None:
            return self._sharded.multiply_block(
                X, output=output, tag=tag, selector=self.selector)
        Xb = self.as_block(X)
        if Xb.n != self.shape[1]:
            raise ShapeError(
                f"SpMM shape mismatch: A is {self.shape}, "
                f"X has {Xb.n} rows"
            )
        kernel = self.selector.choose_spmm(self._imbalance())
        if kernel == SPMM_MERGE_PATH:
            fn, name = spmm_merge_path_kernel, "tile_spmm_merge_path"
        else:
            fn, name = spmm_row_warp_kernel, "tile_spmm_row_warp"
        accounting = self.ctx.accounting
        Y, counters = fn(self.hybrid.tiled, Xb, semiring=self.semiring,
                         with_counters=accounting)
        self.ctx.launch(name, counters, phase="spmm", tag=tag)
        if self.hybrid.side.nnz:
            _, side_counters = spmm_coo_side_kernel(
                self._side_index, Xb, semiring=self.semiring, Y=Y,
                with_counters=accounting)
            self.ctx.launch("tile_spmm_coo_side", side_counters,
                            phase="spmm", tag=tag)
        if output == "dense":
            return Y
        return [self.sparsify(Y[:, j]) for j in range(Y.shape[1])]

    def multiply(self, x: VectorLike, output: str = "sparse"):
        """Single-vector convenience: a block of one column.

        The result is bit-identical to ``TileSpMSpV.multiply(x)`` on
        the same matrix — the B = 1 limit of the column-slice
        equivalence.
        """
        if isinstance(x, np.ndarray):
            block: BlockLike = x.reshape(-1, 1)
        else:
            if not isinstance(x, SparseVector):
                from .spmspv import as_tiled_vector
                xt = as_tiled_vector(x, self.nt,
                                     float(self.semiring.add_identity),
                                     dtype=self.semiring.dtype)
                idx, vals = xt.to_sparse()
                x = SparseVector(xt.n, idx, vals)
            block = [x]
        result = self.multiply_block(
            block, output="dense" if output == "dense" else "sparse")
        if output == "dense":
            return result[:, 0]
        return result[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._sharded is not None:
            return (f"<TileSpMM {self.shape} nt={self.nt} "
                    f"shards={self._sharded.matrix.n_shards} "
                    f"semiring={self.semiring.name}>")
        return (f"<TileSpMM {self.shape} nt={self.nt} "
                f"tiles={self.hybrid.tiled.n_nonempty_tiles} "
                f"side_nnz={self.hybrid.side.nnz} "
                f"semiring={self.semiring.name}>")
