"""Triangle counting via batched SpMSpV.

``trace(A^3) / 6`` counts triangles in an undirected simple graph, and
each diagonal entry of ``A^3`` is ``a_v^T (A a_v)`` — one SpMSpV per
vertex against its own adjacency column, then a sparse dot product.
The per-vertex multiplies batch naturally through
:meth:`~repro.core.TileSpMSpV.multiply_batch`, making this a heavyweight
exerciser of the batched kernel (and a useful analytic in its own
right).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.spmspv import TileSpMSpV
from ..errors import ShapeError
from ..gpusim import Device
from ..runtime import PlanCache
from ..vectors.sparse_vector import SparseVector

__all__ = ["triangle_count", "triangles_per_vertex"]


def triangles_per_vertex(matrix, nt: int = 16,
                         device: Optional[Device] = None,
                         batch_size: int = 32) -> np.ndarray:
    """Number of triangles through each vertex.

    Parameters
    ----------
    matrix:
        Square symmetric 0/1 adjacency pattern without self-loops
        (values are ignored; the pattern is what counts).
    nt, device:
        Forwarded to the TileSpMSpV operator.
    batch_size:
        Vertices processed per batched launch.

    Returns
    -------
    ``int64[n]``: ``t[v]`` = triangles containing ``v``; the global
    count is ``t.sum() / 3``.
    """
    from ..formats.base import SparseMatrix
    from ..formats.coo import COOMatrix

    if isinstance(matrix, SparseMatrix):
        coo = matrix.to_coo()
    else:
        coo = COOMatrix.from_dense(np.asarray(matrix))
    if coo.shape[0] != coo.shape[1]:
        raise ShapeError(
            f"triangle counting requires a square matrix, got {coo.shape}"
        )
    if batch_size < 1:
        raise ShapeError(f"batch_size must be >= 1, got {batch_size}")
    n = coo.shape[0]
    # force pattern values and drop any self-loops
    pattern = COOMatrix(coo.shape, coo.row, coo.col,
                        np.ones(coo.nnz)).without_diagonal()
    csc = pattern.to_csc()
    op = TileSpMSpV(pattern, nt=nt, device=device, plan_cache=PlanCache())

    counts = np.zeros(n, dtype=np.int64)
    vertices = [v for v in range(n)
                if csc.indptr[v + 1] > csc.indptr[v]]
    for lo in range(0, len(vertices), batch_size):
        group = vertices[lo:lo + batch_size]
        cols = []
        for v in group:
            rows_v, vals_v = csc.col_slice(v)
            cols.append(SparseVector(n, rows_v.copy(), vals_v.copy()))
        ys = op.multiply_batch(cols)
        for v, a_v, y in zip(group, cols, ys):
            # t_v = a_v . (A a_v) / 2  (each triangle counted twice)
            wedge = y.ewise_mult(SparseVector(n, a_v.indices,
                                              a_v.values))
            counts[v] = int(round(wedge.values.sum())) // 2
    return counts


def triangle_count(matrix, nt: int = 16,
                   device: Optional[Device] = None,
                   batch_size: int = 32) -> int:
    """Total number of triangles in the graph."""
    return int(triangles_per_vertex(matrix, nt=nt, device=device,
                                    batch_size=batch_size).sum() // 3)
