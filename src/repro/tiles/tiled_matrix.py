"""Tiled sparse matrix storage (paper §3.2.1, Figure 4).

The matrix is cut into ``nt``-by-``nt`` sparse tiles; non-empty tiles
are treated as the nonzero elements of a coarse matrix stored in CSR
("CSR-of-tiles"), and inside each tile only the actual nonzeros are
kept, sorted row-major (the per-tile CSR of paper Alg. 4).  Local
coordinates fit in a byte (``nt <= 64``); for ``nt == 16`` they pack
into a *single* byte — high nibble row, low nibble column — the storage
trick of §3.2.1, exposed via :meth:`TiledMatrix.packed_index`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .._util import ceil_div, gather_ranges
from ..errors import TileError
from ..formats.coo import COOMatrix
from ..formats.csr import compress_indptr, expand_indptr
from .tiled_vector import SUPPORTED_TILE_SIZES

__all__ = ["TiledMatrix", "ColumnGather"]


@dataclass(frozen=True)
class ColumnGather:
    """The tiled structure regrouped by *tile column* — the plan-time
    index behind the active-set execution engine.

    The row-tile kernel's input activity is per tile column (a vector
    tile is a tile column of ``x``), but the CSR-of-tiles layout groups
    storage by tile *row*; without a column index every multiply has to
    mask all ``nnz`` entries to find the active ones.  Grouping the
    stored tiles (and, transitively, their entries) by tile column once
    at plan time turns that O(nnz) mask into an O(active) gather — the
    same trick :class:`~repro.tiles.extraction.IndexedSideMatrix` plays
    for the extracted COO side.

    Attributes
    ----------
    coltile_tile_ptr:
        ``int64[n_tile_cols + 1]`` — ranges into :attr:`coltile_tiles`
        per tile column.
    coltile_tiles:
        ``int64[n_nonempty_tiles]`` — stored-tile indices grouped by
        tile column, ascending within each column.
    coltile_entry_ptr:
        ``int64[n_tile_cols + 1]`` — entry ranges per tile column (into
        :attr:`coltile_entry_perm`).
    coltile_entry_perm:
        ``int64[nnz]`` — entry indices grouped by tile column,
        preserving the stored (row-major per tile) order inside each
        column.
    """

    coltile_tile_ptr: np.ndarray
    coltile_tiles: np.ndarray
    coltile_entry_ptr: np.ndarray
    coltile_entry_perm: np.ndarray

    @classmethod
    def build(cls, A: "TiledMatrix") -> "ColumnGather":
        nc = A.n_tile_cols
        order = np.argsort(A.tile_colidx, kind="stable").astype(np.int64)
        tile_counts = np.bincount(A.tile_colidx, minlength=nc)
        tile_ptr = np.zeros(nc + 1, dtype=np.int64)
        np.cumsum(tile_counts, out=tile_ptr[1:])
        tile_nnz = np.diff(A.tile_nnz_ptr)
        entry_counts = np.zeros(nc, dtype=np.int64)
        np.add.at(entry_counts, A.tile_colidx, tile_nnz)
        entry_ptr = np.zeros(nc + 1, dtype=np.int64)
        np.cumsum(entry_counts, out=entry_ptr[1:])
        entry_perm = gather_ranges(A.tile_nnz_ptr, order)
        return cls(tile_ptr, order, entry_ptr, entry_perm)

    def active_tiles(self, active_cols: np.ndarray) -> np.ndarray:
        """Stored-tile indices living in the given tile columns, sorted
        ascending (the order the CSR-of-tiles stream visits them)."""
        tiles = self.coltile_tiles[
            gather_ranges(self.coltile_tile_ptr, active_cols)]
        tiles.sort()
        return tiles


class TiledMatrix:
    """Sparse matrix of sparse ``nt``-by-``nt`` tiles, CSR-of-tiles layout.

    Attributes
    ----------
    shape:
        Logical ``(m, n)`` of the matrix (not padded).
    nt:
        Tile edge length, from :data:`SUPPORTED_TILE_SIZES`.
    tile_ptr:
        ``int64[n_tile_rows + 1]`` — CSR pointers over tile rows.
    tile_colidx:
        ``int64[n_nonempty_tiles]`` — tile-column index of each stored
        tile, sorted within each tile row.
    tile_nnz_ptr:
        ``int64[n_nonempty_tiles + 1]`` — offsets of each tile's
        nonzeros in the entry arrays.
    local_row, local_col:
        ``uint8[nnz]`` — within-tile coordinates, row-major sorted per
        tile.
    values:
        ``float64[nnz]`` — the nonzero values.
    """

    def __init__(self, shape: Tuple[int, int], nt: int,
                 tile_ptr: np.ndarray, tile_colidx: np.ndarray,
                 tile_nnz_ptr: np.ndarray, local_row: np.ndarray,
                 local_col: np.ndarray, values: np.ndarray,
                 validate: bool = True):
        if nt not in SUPPORTED_TILE_SIZES:
            raise TileError(
                f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
            )
        self.shape = (int(shape[0]), int(shape[1]))
        self.nt = int(nt)
        self.tile_ptr = np.ascontiguousarray(tile_ptr, dtype=np.int64)
        self.tile_colidx = np.ascontiguousarray(tile_colidx, dtype=np.int64)
        self.tile_nnz_ptr = np.ascontiguousarray(tile_nnz_ptr, dtype=np.int64)
        self.local_row = np.ascontiguousarray(local_row, dtype=np.uint8)
        self.local_col = np.ascontiguousarray(local_col, dtype=np.uint8)
        self.values = np.ascontiguousarray(values)
        # ``validate=False`` is for trusted producers over lazy storage
        # (the mmap loader in ``tiles.io``): a full validate pages every
        # array in, defeating the point of memory-mapping the payload.
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant of the tiled layout."""
        mt, nc = self.n_tile_rows, self.n_tile_cols
        if len(self.tile_ptr) != mt + 1:
            raise TileError(
                f"tile_ptr length {len(self.tile_ptr)} != n_tile_rows+1"
            )
        if self.tile_ptr[0] != 0 or np.any(np.diff(self.tile_ptr) < 0):
            raise TileError("tile_ptr must start at 0 and be non-decreasing")
        if self.tile_ptr[-1] != len(self.tile_colidx):
            raise TileError("tile_ptr[-1] != number of stored tiles")
        if len(self.tile_colidx) and (
                self.tile_colidx.min() < 0 or self.tile_colidx.max() >= nc):
            raise TileError("tile column index out of range")
        if len(self.tile_nnz_ptr) != len(self.tile_colidx) + 1:
            raise TileError("tile_nnz_ptr length != n_tiles + 1")
        if (self.tile_nnz_ptr[0] != 0
                or np.any(np.diff(self.tile_nnz_ptr) < 0)
                or self.tile_nnz_ptr[-1] != len(self.values)):
            raise TileError("tile_nnz_ptr inconsistent with entry arrays")
        if np.any(np.diff(self.tile_nnz_ptr) == 0):
            raise TileError("stored tiles must be non-empty")
        if not (len(self.local_row) == len(self.local_col)
                == len(self.values)):
            raise TileError("entry arrays have inconsistent lengths")
        if len(self.local_row) and (int(self.local_row.max()) >= self.nt or
                                    int(self.local_col.max()) >= self.nt):
            raise TileError(f"local index out of tile range (nt={self.nt})")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, nt: int) -> "TiledMatrix":
        """Tile a COO matrix (duplicates summed).

        Entries are bucketed by ``(tile_row, tile_col)`` and sorted
        row-major inside each tile, all with vectorized sorts — the
        format-conversion step whose cost Figure 11 measures.
        """
        if nt not in SUPPORTED_TILE_SIZES:
            raise TileError(
                f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
            )
        coo = coo.sum_duplicates()
        m, n = coo.shape
        trow = coo.row // nt
        tcol = coo.col // nt
        lrow = (coo.row % nt).astype(np.uint8)
        lcol = (coo.col % nt).astype(np.uint8)
        order = np.lexsort((lcol, lrow, tcol, trow))
        trow, tcol = trow[order], tcol[order]
        lrow, lcol = lrow[order], lcol[order]
        vals = coo.val[order]

        nc = ceil_div(n, nt)
        tile_key = trow * nc + tcol
        from .._util import group_starts

        starts = group_starts(tile_key)
        n_tiles = len(starts)
        tile_nnz_ptr = np.concatenate(
            [starts, [len(tile_key)]]).astype(np.int64)
        tile_trow = trow[starts] if n_tiles else np.zeros(0, dtype=np.int64)
        tile_colidx = tcol[starts] if n_tiles else np.zeros(0, dtype=np.int64)
        tile_ptr = compress_indptr(tile_trow, ceil_div(m, nt))
        return cls((m, n), nt, tile_ptr, tile_colidx, tile_nnz_ptr,
                   lrow, lcol, vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray, nt: int) -> "TiledMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense), nt)

    # ------------------------------------------------------------------
    # Geometry / accessors
    # ------------------------------------------------------------------
    @property
    def n_tile_rows(self) -> int:
        """Number of tile rows (``ceil(m / nt)``)."""
        return ceil_div(self.shape[0], self.nt)

    @property
    def n_tile_cols(self) -> int:
        """Number of tile columns (``ceil(n / nt)``)."""
        return ceil_div(self.shape[1], self.nt)

    @property
    def n_nonempty_tiles(self) -> int:
        """Number of stored tiles."""
        return len(self.tile_colidx)

    def nbytes(self) -> int:
        """Bytes of the stored format arrays (the quantity the sharded
        resident-set budget is expressed in)."""
        return int(self.tile_ptr.nbytes + self.tile_colidx.nbytes
                   + self.tile_nnz_ptr.nbytes + self.local_row.nbytes
                   + self.local_col.nbytes + self.values.nbytes)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return len(self.values)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def tile_rowidx(self) -> np.ndarray:
        """Tile-row index of each stored tile (expansion of tile_ptr).

        Cached: the kernels need it on every multiply and it only
        depends on immutable structure.
        """
        cached = getattr(self, "_tile_rowidx", None)
        if cached is None:
            cached = expand_indptr(self.tile_ptr)
            self._tile_rowidx = cached
        return cached

    def tile_nnz(self) -> np.ndarray:
        """Nonzero count of each stored tile (cached)."""
        cached = getattr(self, "_tile_nnz", None)
        if cached is None:
            cached = np.diff(self.tile_nnz_ptr)
            self._tile_nnz = cached
        return cached

    def tile_of_entry(self) -> np.ndarray:
        """Stored-tile index of each nonzero entry (cached)."""
        cached = getattr(self, "_tile_of_entry", None)
        if cached is None:
            cached = expand_indptr(self.tile_nnz_ptr)
            self._tile_of_entry = cached
        return cached

    def local_row64(self) -> np.ndarray:
        """:attr:`local_row` widened to int64 (cached).

        The kernels need the widened copy on every multiply for index
        arithmetic; casting per launch was a full O(nnz) pass."""
        cached = getattr(self, "_local_row64", None)
        if cached is None:
            cached = self.local_row.astype(np.int64)
            self._local_row64 = cached
        return cached

    def local_col64(self) -> np.ndarray:
        """:attr:`local_col` widened to int64 (cached)."""
        cached = getattr(self, "_local_col64", None)
        if cached is None:
            cached = self.local_col.astype(np.int64)
            self._local_col64 = cached
        return cached

    def entry_rows(self) -> np.ndarray:
        """Global row index of each entry (cached):
        ``tile_rowidx[tile_of_entry] * nt + local_row``."""
        cached = getattr(self, "_entry_rows", None)
        if cached is None:
            cached = (self.tile_rowidx()[self.tile_of_entry()] * self.nt
                      + self.local_row64())
            self._entry_rows = cached
        return cached

    def entry_cols(self) -> np.ndarray:
        """Global column index of each entry (cached):
        ``tile_colidx[tile_of_entry] * nt + local_col``."""
        cached = getattr(self, "_entry_cols", None)
        if cached is None:
            cached = (self.tile_colidx[self.tile_of_entry()] * self.nt
                      + self.local_col64())
            self._entry_cols = cached
        return cached

    def n_occupied_tile_rows(self) -> int:
        """Number of tile rows holding at least one stored tile
        (cached) — the warp count of the row-tile kernel."""
        cached = getattr(self, "_n_occupied_tile_rows", None)
        if cached is None:
            cached = int((np.diff(self.tile_ptr) > 0).sum())
            self._n_occupied_tile_rows = cached
        return cached

    def n_col_segments(self) -> int:
        """Number of distinct ``(stored tile, local column)`` pairs
        (cached) — the dense-block row segments the merge-path SpMM
        kernel stages.  One boolean scatter over the ``n_tiles * nt``
        slots, equal to ``np.unique(tile_of_entry * nt +
        local_col).size`` without the sort."""
        cached = getattr(self, "_n_col_segments", None)
        if cached is None:
            seen = np.zeros(self.n_nonempty_tiles * self.nt, dtype=bool)
            seen[self.tile_of_entry() * np.int64(self.nt)
                 + self.local_col64()] = True
            cached = int(np.count_nonzero(seen))
            self._n_col_segments = cached
        return cached

    def column_gather(self) -> ColumnGather:
        """The tile-column grouping of the stored structure (cached).

        Built once per matrix (plan time for operators sharing an
        :class:`~repro.runtime.OperatorPlan`); every multiply then
        gathers only the entries of active tile columns instead of
        masking all ``nnz``.
        """
        cached = getattr(self, "_column_gather", None)
        if cached is None:
            cached = ColumnGather.build(self)
            self._column_gather = cached
        return cached

    def tile_slice(self, t: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(local_row, local_col, values)`` views of stored tile ``t``."""
        lo, hi = self.tile_nnz_ptr[t], self.tile_nnz_ptr[t + 1]
        return (self.local_row[lo:hi], self.local_col[lo:hi],
                self.values[lo:hi])

    def packed_index(self) -> np.ndarray:
        """Nibble-packed per-entry index (§3.2.1): high 4 bits local row,
        low 4 bits local column.  Only defined for ``nt == 16``."""
        if self.nt != 16:
            raise TileError(
                f"packed single-byte indices require nt=16, have nt={self.nt}"
            )
        return ((self.local_row << 4) | self.local_col).astype(np.uint8)

    def index_bytes_per_entry(self) -> int:
        """Bytes of local-index storage per nonzero (1 for nt=16 thanks
        to nibble packing, else 2)."""
        return 1 if self.nt == 16 else 2

    def nbytes(self) -> int:
        """Storage footprint of the tiled structure in bytes."""
        entry_idx = self.nnz * self.index_bytes_per_entry()
        return int(self.tile_ptr.nbytes + self.tile_colidx.nbytes
                   + self.tile_nnz_ptr.nbytes + entry_idx
                   + self.values.nbytes)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        """Expand back to a COO matrix with global coordinates."""
        tile = self.tile_of_entry()
        trow = self.tile_rowidx()[tile]
        tcol = self.tile_colidx[tile]
        rows = trow * self.nt + self.local_row.astype(np.int64)
        cols = tcol * self.nt + self.local_col.astype(np.int64)
        return COOMatrix(self.shape, rows, cols, self.values.copy())

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<TiledMatrix {self.shape[0]}x{self.shape[1]} nt={self.nt} "
                f"tiles={self.n_nonempty_tiles} nnz={self.nnz}>")
