"""SpMM accounting: cached merge-path segments, counters vs the seed
formula, and the fold's all-active shortcut."""

import numpy as np
import pytest

from repro.core import spmm_kernels
from repro.core.spmm_kernels import (MERGE_ITEMS_PER_WARP,
                                     spmm_merge_path_kernel,
                                     spmm_row_warp_kernel)
from repro.core.spmspv_kernels import _lane_utilization
from repro.formats.coo import COOMatrix
from repro.gpusim import KernelCounters
from repro.semiring import PLUS_TIMES
from repro.tiles import tiled_matrix
from repro.tiles.tiled_matrix import TiledMatrix
from repro.vectors.dense_block import DenseBlock
from repro.verify.cases import _FAMILIES_FULL


def unique_segments(A: TiledMatrix) -> int:
    if A.nnz == 0:
        return 0
    return int(np.unique(A.tile_of_entry() * np.int64(A.nt)
                         + A.local_col64()).size)


def seed_counters(A: TiledMatrix, B: int, merge_path: bool
                  ) -> KernelCounters:
    """The counter formulas of the original SpMM kernels, with the
    segment count taken by ``np.unique`` on every launch."""
    c = KernelCounters(launches=1)
    occupied_rows = int((np.diff(A.tile_ptr) > 0).sum())
    c.coalesced_read_bytes += A.n_nonempty_tiles * 16.0
    c.coalesced_read_bytes += A.nnz * (8.0 + A.index_bytes_per_entry())
    c.coalesced_write_bytes += occupied_rows * A.nt * B * 8.0
    c.flops += 2.0 * A.nnz * B
    if not merge_path:
        c.l2_read_bytes += A.nnz * B * 8.0
        c.word_ops += A.n_nonempty_tiles * 5.0
        c.warps = float(max(1, occupied_rows))
        c.divergence = _lane_utilization(np.diff(A.tile_nnz_ptr))
        return c
    segments = unique_segments(A)
    c.l2_read_bytes += segments * B * 8.0
    c.shared_bytes += segments * B * 8.0
    n_warps = max(1, -(-A.nnz // MERGE_ITEMS_PER_WARP))
    c.word_ops += n_warps * 12.0
    c.word_ops += 2.0 * A.nnz
    c.warps = float(n_warps)
    if A.nnz:
        chunk = np.full(n_warps, MERGE_ITEMS_PER_WARP, dtype=np.float64)
        chunk[-1] = A.nnz - MERGE_ITEMS_PER_WARP * (n_warps - 1)
        c.divergence = _lane_utilization(chunk)
    return c


def masked_fold(A: TiledMatrix, X: DenseBlock) -> np.ndarray:
    """The fold with its per-column active-tile selection always on."""
    Y = np.full((A.shape[0], X.B), PLUS_TIMES.add_identity)
    gcol = A.entry_cols()
    tiles = X.data.reshape(-1, A.nt, X.B)
    active = np.any(tiles != X.fill, axis=1)
    for j in range(X.B):
        sel = active[gcol // A.nt, j]
        PLUS_TIMES.scatter_merge(
            Y[:, j], A.entry_rows()[sel],
            PLUS_TIMES.mul(A.values[sel], X.data[gcol[sel], j]))
    return Y


def block(n: int, B: int, density: float, nt: int, seed: int
          ) -> DenseBlock:
    rng = np.random.default_rng(seed)
    X = np.where(rng.random((n, B)) < density,
                 rng.standard_normal((n, B)), 0.0)
    return DenseBlock.from_dense(X, nt)


EMPTY = COOMatrix((40, 40), np.array([], dtype=np.int64),
                  np.array([], dtype=np.int64), np.array([]))


class TestSegmentCount:
    @pytest.mark.parametrize("nt", [4, 8, 16])
    @pytest.mark.parametrize("fam", _FAMILIES_FULL, ids=lambda f: f[0])
    def test_equals_unique(self, fam, nt):
        A = TiledMatrix.from_coo(fam[1](3), nt)
        assert A.n_col_segments() == unique_segments(A)
        assert A.n_col_segments() <= A.nnz

    def test_empty_tiling(self):
        A = TiledMatrix.from_coo(EMPTY, 8)
        assert A.n_col_segments() == unique_segments(A) == 0

    def test_cached(self):
        A = TiledMatrix.from_coo(_FAMILIES_FULL[0][1](1), 8)
        assert A.n_col_segments() is A.n_col_segments()


class _NoUnique:
    """A stand-in for the ``np`` of one module whose ``unique`` fails."""

    def __getattr__(self, name):
        if name == "unique":
            raise AssertionError("np.unique called on the SpMM path")
        return getattr(np, name)


def test_merge_path_counters_never_call_unique(monkeypatch):
    A = TiledMatrix.from_coo(_FAMILIES_FULL[3][1](5), 8)   # rmat
    X = block(A.shape[1], 4, 0.3, 8, seed=1)
    monkeypatch.setattr(spmm_kernels, "np", _NoUnique())
    monkeypatch.setattr(tiled_matrix, "np", _NoUnique())
    _, counters = spmm_merge_path_kernel(A, X)
    monkeypatch.undo()
    assert counters == seed_counters(A, 4, merge_path=True)


@pytest.mark.parametrize("fam", _FAMILIES_FULL, ids=lambda f: f[0])
@pytest.mark.parametrize("nt,B,density", [(4, 1, 0.05), (8, 4, 0.3),
                                          (16, 8, 1.0)])
def test_counters_match_seed_formula(fam, nt, B, density):
    A = TiledMatrix.from_coo(fam[1](7), nt)
    X = block(A.shape[1], B, density, nt, seed=nt + B)
    want_Y = masked_fold(A, X)
    for kernel, merge in ((spmm_row_warp_kernel, False),
                          (spmm_merge_path_kernel, True)):
        Y, counters = kernel(A, X)
        assert counters == seed_counters(A, B, merge_path=merge)
        assert np.array_equal(Y.view(np.uint8), want_Y.view(np.uint8))


def test_empty_tiling_counters_match_seed_formula():
    A = TiledMatrix.from_coo(EMPTY, 8)
    X = block(40, 2, 1.0, 8, seed=0)
    for kernel, merge in ((spmm_row_warp_kernel, False),
                          (spmm_merge_path_kernel, True)):
        _, counters = kernel(A, X)
        assert counters == seed_counters(A, 2, merge_path=merge)
