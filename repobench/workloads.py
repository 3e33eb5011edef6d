"""The four benchmark workloads.

Each workload generates its inputs from the run's seed, sets up the
library objects (timed, several times on fresh plan caches), measures,
and checks every result outside the timed region.  The graphs are a
fixed dataset (R-MAT from seed ``GRAPH_SEED``, as the paper evaluates
fixed matrices, and ``bench_serving``'s Erdos-Renyi graphs); the op
stream — BFS sources, vectors, dense blocks, request arrivals — comes
from ``--seed``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from bisect import bisect_right
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time_ns
from typing import Dict, List, Optional

import numpy as np

from harness import WARMUP_OPS, Run, closed_loop, time_setups
from spans import SpanRecorder, phase

from repro import Device, PAPER_SPARSITIES, TileBFS, TileSpMSpV
from repro.formats.coo import COOMatrix
from repro.formats.convert import to_scipy_csr
from repro.graphs.bfs_reference import bfs_levels
from repro.graphs.pagerank import pagerank
from repro.matrices.generators import erdos_renyi, rmat
from repro.parallel.config import ParallelConfig
from repro.runtime.plan import PlanCache
from repro.serving import (AdmissionController, BFSQuery,
                           GraphQueryService, MultiplyQuery,
                           PageRankQuery, ServiceSaturated,
                           TenantPlanCache)
from repro.shards.engine import ShardedSpMSpV
from repro.shards.sharded_matrix import ShardedTiledMatrix
from repro.vectors import random_sparse_vector

#: Seed of the fixed graphs.
GRAPH_SEED = 1


def _rng(seed: int, stream: int, i: int) -> np.random.Generator:
    """The generator of op ``i`` (warm-up ops have negative ``i``) of
    one input stream."""
    return np.random.default_rng([seed, stream, i + 1024])


def rmat_graph(scale: int, graph_dir: Optional[str]) -> COOMatrix:
    """The R-MAT graph of ``scale`` (edge factor 16, ``GRAPH_SEED``).

    With ``graph_dir`` it is generated once, saved there and loaded
    back, so every run sets up from the same loaded matrix and later
    runs skip the generation (about 5 s at scale 17).
    """
    if graph_dir is None:
        return rmat(scale, 16, seed=GRAPH_SEED)
    path = Path(graph_dir) / f"rmat{scale}-{GRAPH_SEED}.npz"
    if not path.exists():
        A = rmat(scale, 16, seed=GRAPH_SEED)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.npz")
        np.savez(tmp, shape=np.asarray(A.shape), row=A.row, col=A.col,
                 val=A.val)
        os.replace(tmp, path)
    with np.load(path) as z:
        return COOMatrix(tuple(int(d) for d in z["shape"]), z["row"],
                         z["col"], z["val"])


def _sources_pool(A) -> np.ndarray:
    """Vertices with out-degree > 0 (column ``j`` holds ``j``'s
    out-edges)."""
    return np.flatnonzero(np.bincount(A.col, minlength=A.shape[1]) > 0)


def _close(y: np.ndarray, ref: np.ndarray) -> bool:
    return y.shape == ref.shape and bool(
        np.allclose(y, ref, rtol=1e-9, atol=1e-12))


# ----------------------------------------------------------------------
# bfs-rmat
# ----------------------------------------------------------------------
class BfsRmat:
    """``TileBFS.run`` on an R-MAT graph: accounted reference kernels,
    then the device-less fused fast path, from the same source.

    Host time per traversal depends strongly on the source (the fused
    path's direction choices: 35-165 ms here), so the sources are a
    fixed pool of ``pool_size`` vertices with out-degree > 0, drawn
    once with ``GRAPH_SEED``; the run's seed orders the pool.  Each
    run then sees nearly the same mix of sources, and the seed moves
    which ones the modeled prefix and the replayed ops cover.
    """

    name = "bfs-rmat"
    SETUP_REPS = 2
    #: sources per run also checked with ``bfs_reference``
    REFERENCE_OPS = 2

    def __init__(self, scale: int = 17, pool_size: int = 32,
                 min_ops: int = 16, replay: int = 8,
                 graph_dir: Optional[str] = None):
        self.scale = scale
        self.graph_dir = graph_dir
        self.pool_size = pool_size
        self.min_ops = min_ops
        self.replay = replay

    def generate(self, seed: int) -> None:
        self.seed = seed
        self.A = rmat_graph(self.scale, self.graph_dir)
        csc = self.A.to_csc()
        self.csc = csc
        # edge j -> i for every stored A[i, j]
        self.edge_src = np.repeat(np.arange(csc.shape[1]),
                                  np.diff(csc.indptr))
        self.edge_dst = csc.indices
        active = _sources_pool(self.A)
        self.pool = np.random.default_rng(GRAPH_SEED).choice(
            active, size=self.pool_size, replace=False)
        self.order = np.random.default_rng(seed).permutation(self.pool)
        self.warm = np.random.default_rng([seed, 1]).choice(
            active, size=WARMUP_OPS)
        self._reference: Dict[int, np.ndarray] = {}
        self._certified: Dict[int, bytes] = {}

    def make_input(self, i: int) -> int:
        if i < 0:
            return int(self.warm[-1 - i])
        return int(self.order[i % len(self.order)])

    def setup(self):
        return TileBFS(self.A, plan_cache=PlanCache())

    def is_bfs(self, source: int, levels) -> bool:
        """Exact BFS certificate, linear in the edges: the source alone
        has level 0; every edge out of a reached vertex reaches a
        vertex at most one level deeper; every vertex at level d > 0
        has an in-edge from level d - 1.  Only true BFS levels pass."""
        L = np.asarray(levels)
        if L.shape != (self.A.shape[0],) or L[source] != 0 \
                or np.count_nonzero(L == 0) != 1:
            return False
        Ls, Ld = L[self.edge_src], L[self.edge_dst]
        out = Ls >= 0
        if np.any(Ld[out] < 0) or np.any(Ld[out] > Ls[out] + 1):
            return False
        has_parent = np.zeros(len(L), dtype=bool)
        has_parent[self.edge_dst[out & (Ld == Ls + 1)]] = True
        return bool(np.all(has_parent[L > 0]))

    def check(self, source: int, levels) -> bool:
        """Every result passes the certificate (a result whose digest
        equals one already certified for its source passes by
        equality); the first ``REFERENCE_OPS`` sources of the run are
        also compared with ``bfs_reference`` (about 1 s each at scale
        17)."""
        digest = hashlib.blake2b(np.ascontiguousarray(levels)).digest()
        if self._certified.get(source) != digest:
            if not self.is_bfs(source, levels):
                return False
            self._certified[source] = digest
        ref = self._reference.get(source)
        if ref is None and len(self._reference) < self.REFERENCE_OPS:
            ref = self._reference[source] = bfs_levels(self.csc, source)
        return ref is None or bool(np.array_equal(levels, ref))

    def run(self, seconds: float, rec: Optional[SpanRecorder]) -> Run:
        run = Run()
        bfs = time_setups(self.setup, self.SETUP_REPS, rec, run)
        dev = Device()

        def call(s, device):
            bfs.device = device
            return bfs.run(s).levels

        closed_loop(run, seconds, self.min_ops, self.replay,
                    self.make_input, call, self.check, rec, dev)
        return run


# ----------------------------------------------------------------------
# spmspv-rmat
# ----------------------------------------------------------------------
class SpmspvRmat:
    """``TileSpMSpV.multiply`` on the same R-MAT graph; one op is a
    Fig. 6 column: four fresh vectors at the paper's sparsities."""

    name = "spmspv-rmat"

    SETUP_REPS = 5

    def __init__(self, scale: int = 17, min_ops: int = 12, replay: int = 6,
                 graph_dir: Optional[str] = None):
        self.scale = scale
        self.graph_dir = graph_dir
        self.min_ops = min_ops
        self.replay = replay

    def generate(self, seed: int) -> None:
        self.seed = seed
        self.A = rmat_graph(self.scale, self.graph_dir)
        self.As = to_scipy_csr(self.A)

    def make_input(self, i: int) -> list:
        rng = _rng(self.seed, 2, i)
        n = self.A.shape[1]
        return [random_sparse_vector(n, s, seed=int(rng.integers(1 << 31)))
                for s in PAPER_SPARSITIES]

    def setup(self):
        return TileSpMSpV(self.A, plan_cache=PlanCache())

    def check(self, xs, ys) -> bool:
        return len(ys) == len(xs) and all(
            _close(y.to_dense(), self.As @ x.to_dense())
            for x, y in zip(xs, ys))

    def run(self, seconds: float, rec: Optional[SpanRecorder]) -> Run:
        run = Run()
        op = time_setups(self.setup, self.SETUP_REPS, rec, run)
        dev = Device()

        def call(xs, device):
            op.device = device
            return [op.multiply(x) for x in xs]

        closed_loop(run, seconds, self.min_ops, self.replay,
                    self.make_input, call, self.check, rec, dev)
        return run


# ----------------------------------------------------------------------
# spmm-sharded
# ----------------------------------------------------------------------
class SpmmSharded:
    """``ShardedSpMSpV.multiply_block`` over 8 row strips on a
    directory shard store whose resident budget is below the total
    tile bytes, on 2 thread workers."""

    name = "spmm-sharded"

    SETUP_REPS = 9
    BLOCK = 8
    N_SHARDS = 8
    WORKERS = 2

    def __init__(self, scale: int = 15, budget_bytes: int = 6 << 20,
                 min_ops: int = 4, replay: int = 3, work_root: str = ".",
                 graph_dir: Optional[str] = None):
        self.scale = scale
        self.graph_dir = graph_dir
        self.budget_bytes = budget_bytes
        self.min_ops = min_ops
        self.replay = replay
        self.work_root = work_root

    def generate(self, seed: int) -> None:
        self.seed = seed
        self.A = rmat_graph(self.scale, self.graph_dir)
        self.As = to_scipy_csr(self.A)

    def make_input(self, i: int) -> np.ndarray:
        return _rng(self.seed, 4, i).random((self.A.shape[1], self.BLOCK))

    def setup(self):
        store = tempfile.mkdtemp(prefix="shards-", dir=self._work)
        S = ShardedTiledMatrix.from_coo(self.A, nt=16,
                                        n_shards=self.N_SHARDS,
                                        store_dir=store,
                                        budget_bytes=self.budget_bytes)
        total = sum(S.store.nbytes(s) for s in S.store.shard_ids)
        if total <= self.budget_bytes:
            raise ValueError(f"resident budget {self.budget_bytes} B holds "
                             f"all {total} B of tiles: nothing would evict")
        return ShardedSpMSpV(
            S, plan_cache=PlanCache(),
            parallel=ParallelConfig(workers=self.WORKERS, backend="thread"))

    def check(self, X, Y) -> bool:
        return _close(np.asarray(Y), self.As @ X)

    def run(self, seconds: float, rec: Optional[SpanRecorder]) -> Run:
        Path(self.work_root).mkdir(parents=True, exist_ok=True)
        self._work = tempfile.mkdtemp(prefix="spmm-", dir=self.work_root)
        try:
            return self._run(seconds, rec)
        finally:
            shutil.rmtree(self._work, ignore_errors=True)

    def _run(self, seconds: float, rec: Optional[SpanRecorder]) -> Run:
        run = Run()
        eng = time_setups(self.setup, self.SETUP_REPS, rec, run)
        dev = Device()

        def call(X, device):
            eng.device = device
            return eng.multiply_block(X)

        extra = None
        one_ms, two_ms = [], []
        if rec is not None:
            # parallel.wall_speedup: 1 worker on the same block, right
            # after the 2-worker accounted op (own resident set, plan
            # cache and device)
            eng1 = ShardedSpMSpV(
                ShardedTiledMatrix.open(eng.matrix.store.root,
                                        budget_bytes=self.budget_bytes),
                plan_cache=PlanCache(), parallel=ParallelConfig(workers=1),
                device=Device())

            def extra(X):
                t0 = perf_counter()
                eng1.multiply_block(X)
                one_ms.append((perf_counter() - t0) * 1e3)
                two_ms.append(run.acc_ms[-1])

            eng1.multiply_block(self.make_input(-1))

        s0 = eng.stats()
        c0 = eng.cache.stats()
        closed_loop(run, seconds, self.min_ops, self.replay,
                    self.make_input, call, self.check, rec, dev, extra)
        s1 = eng.stats()
        c1 = eng.cache.stats()
        n = len(run.acc_ms)
        loads = s1["loads"] - s0["loads"]
        hits = s1["hits"] - s0["hits"]
        lookups = (c1["hits"] - c0["hits"]) + (c1["misses"] - c0["misses"])
        run.layer.update({
            "load_bytes_per_op": (s1["loaded_bytes"]
                                  - s0["loaded_bytes"]) / n,
            "resident_hit_ratio": hits / max(1, hits + loads),
            "plan_hit_ratio": (c1["hits"] - c0["hits"]) / max(1, lookups),
        })
        if one_ms:
            run.layer["wall_speedup"] = float(np.median(one_ms)
                                              / np.median(two_ms))
        return run


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class ServeMixed:
    """``GraphQueryService`` on ``time.perf_counter`` under seeded
    open-loop Poisson traffic at one fixed absolute rate.

    The traffic is cut into segments of ``segment_s`` seconds of
    arrivals, as many as the run's two open-loop passes per segment
    fill.  Each segment runs open-loop on a fresh accounted service,
    then open-loop on a fresh device-less service, then closed-loop
    (back to back, size-budget batching only) on a third, accounted
    service that lives through the whole run, which gives
    ``ops_per_s``, the modeled time and the uptime ratio.
    """

    name = "serve-mixed"
    #: hot multiply / cold multiply / BFS / PageRank
    MIX = (0.70, 0.15, 0.10, 0.05)

    #: timed set-ups before the first segment, and in each segment
    SETUP_REPS = 4
    SEGMENT_SETUPS = 2
    #: ``bench_serving``'s matrices: a hot Erdos-Renyi graph and
    #: ``N_COLD`` cold ones (average degrees 8 and 6) from its seed 7
    SERVING_SEED = 7
    N_COLD = 3
    #: nonzero share of every multiply vector
    DENSITY = 0.01
    #: the service's coalescing budgets (as in ``bench_serving``)
    MAX_BATCH = 8
    MAX_DELAY_MS = 2.0
    #: segments replayed for the uptime ratio (each pair of passes
    #: takes about 0.1 s, so its ratio is noisy; the median needs many)
    REPLAY = 16

    def __init__(self, hot_n: int = 1024, cold_n: int = 256,
                 rate: float = 100.0, segment_s: float = 1.0,
                 min_segments: int = 2):
        self.hot_n = hot_n
        self.cold_n = cold_n
        self.rate = rate
        self.segment_s = segment_s
        self.min_segments = min_segments

    def generate(self, seed: int) -> None:
        self.seed = seed
        self.hot = erdos_renyi(self.hot_n, 8.0, seed=self.SERVING_SEED)
        self.cold = [erdos_renyi(self.cold_n, 6.0,
                                 seed=self.SERVING_SEED + 1 + j)
                     for j in range(self.N_COLD)]
        self.sources = _sources_pool(self.hot)
        # the checks' direct engines, built before set-up so their
        # memory is a fixed part of peak_rss_mb
        self._engines = {"hot": TileSpMSpV(self.hot, plan_cache=PlanCache())}
        self._engines.update(
            (f"cold{j}", TileSpMSpV(A, plan_cache=PlanCache()))
            for j, A in enumerate(self.cold))
        self._bfs = TileBFS(self.hot, plan_cache=PlanCache())
        self._ref: Dict[object, np.ndarray] = {}

    def segments(self, seconds: float) -> int:
        """Segments in a run of ``seconds``: each takes two open-loop
        passes of ``segment_s``."""
        return max(self.min_segments, round(seconds / (2 * self.segment_s)))

    def segment(self, j: int):
        """Arrival offsets (s) and queries of traffic segment ``j``.

        The schedule — arrival times and the order of query kinds — is
        a fixed dataset like the graphs (seeded with ``GRAPH_SEED``),
        since Poisson bursts that change with the seed move the latency
        tail.  ``--seed`` draws the vectors, cold matrices and BFS
        sources.
        """
        sched = _rng(GRAPH_SEED, 3, j)
        gaps = sched.exponential(1.0 / self.rate,
                                 size=int(self.rate * self.segment_s * 2) + 16)
        arrivals = np.cumsum(gaps)
        arrivals = arrivals[arrivals < self.segment_s]
        # exactly the mix's shares (largest remainder), in fixed order
        share = np.asarray(self.MIX) * len(arrivals)
        counts = np.floor(share).astype(int)
        counts[np.argsort(counts - share)[:len(arrivals) - counts.sum()]] += 1
        kinds = sched.permutation(np.repeat(np.arange(4), counts))
        rng = _rng(self.seed, 3, j)
        queries = []
        for k in kinds:
            if k == 0:
                x = random_sparse_vector(self.hot.shape[1], self.DENSITY,
                                         seed=int(rng.integers(1 << 31)))
                queries.append(MultiplyQuery("hot", x))
            elif k == 1:
                c = int(rng.integers(self.N_COLD))
                x = random_sparse_vector(self.cold_n, self.DENSITY,
                                         seed=int(rng.integers(1 << 31)))
                queries.append(MultiplyQuery(f"cold{c}", x))
            elif k == 2:
                queries.append(BFSQuery("hot",
                                        int(rng.choice(self.sources))))
            else:
                queries.append(PageRankQuery("hot", max_iter=20))
        return arrivals, queries

    def make_service(self, device, batching: bool) -> GraphQueryService:
        """A ready service: matrices registered, the hot plan pinned,
        and the lazily built paths (every matrix's multiply plan, the
        TileBFS plan, the PageRank memo) warmed by one query each."""
        svc = GraphQueryService(
            device=device, clock=perf_counter, max_batch=self.MAX_BATCH,
            max_delay_ms=self.MAX_DELAY_MS if batching else None,
            admission=AdmissionController() if batching
            else AdmissionController(max_pending=None),
            tenants=TenantPlanCache())
        svc.register_matrix("hot", self.hot, pin=True)
        for j, A in enumerate(self.cold):
            svc.register_matrix(f"cold{j}", A)
        svc.submit_nowait(BFSQuery("hot", int(self.sources[0])))
        svc.submit_nowait(PageRankQuery("hot", max_iter=20))
        for name, A in [("hot", self.hot)] + [
                (f"cold{j}", A) for j, A in enumerate(self.cold)]:
            svc.submit_nowait(MultiplyQuery(name, random_sparse_vector(
                A.shape[1], self.DENSITY, seed=GRAPH_SEED)))
        svc.drain()
        return svc

    # -- checks ----------------------------------------------------------
    def _direct(self, q):
        """A direct engine call on query ``q``; equal BFS and PageRank
        queries share one reference."""
        if isinstance(q, MultiplyQuery):
            return self._engines[q.matrix].multiply(q.x)
        ref = self._ref.get(q)
        if ref is None:
            ref = self._ref[q] = (
                self._bfs.run(q.source).levels if isinstance(q, BFSQuery)
                else pagerank(self.hot, damping=q.damping, tol=q.tol,
                              max_iter=q.max_iter)[0])
        return ref

    def check(self, run: Run, queries, passes) -> None:
        """Check every pass's ticket for each query against a direct
        engine call on that query, bit for bit."""
        for i, q in enumerate(queries):
            ref = self._direct(q)
            for tickets in passes:
                t = tickets[i]
                if t is None or not t.done:
                    run.checked(False)
                elif isinstance(q, MultiplyQuery):
                    run.checked(np.array_equal(t.value.indices, ref.indices)
                                and np.array_equal(t.value.values,
                                                   ref.values))
                else:
                    got = t.value.levels if isinstance(q, BFSQuery) \
                        else t.value[0]
                    run.checked(bool(np.array_equal(got, ref)))

    # -- load generation -------------------------------------------------
    def open_loop(self, svc, arrivals, queries, late_ms: List[float]):
        """Send each request when due (sleeping until the next arrival
        or batching deadline, whichever is first, then pumping);
        returns ``(due_s, ticket or None)`` per request and the
        rejection count."""
        out = []
        rejects = 0
        start = perf_counter() + 1e-3
        k = 0
        while k < len(arrivals):
            due = start + arrivals[k]
            now = perf_counter()
            if now < due:
                wait = due - now
                deadline_ms = svc.next_deadline_ms()
                if deadline_ms is not None:
                    wait = min(wait, deadline_ms / 1e3)
                if wait > 0:
                    time.sleep(wait)
                svc.pump()
                continue
            late_ms.append((now - due) * 1e3)
            try:
                out.append((due, svc.submit_nowait(queries[k])))
            except ServiceSaturated:
                out.append((due, None))
                rejects += 1
            except Exception:        # a failed request is counted
                out.append((due, None))
            k += 1
        while svc.pending:
            deadline_ms = svc.next_deadline_ms()
            if deadline_ms is not None and deadline_ms > 0:
                time.sleep(deadline_ms / 1e3)
            svc.pump()
        return out, rejects

    def run(self, seconds: float, rec: Optional[SpanRecorder]) -> Run:
        run = Run()
        setup_dev = Device()
        time_setups(lambda: self.make_service(setup_dev, True),
                    self.SETUP_REPS, rec, run)
        cdev = Device()
        csvc = self.make_service(cdev, False)
        # one unmeasured closed pass: the first full-size batches
        closed_pass(csvc, self.segment(-1)[1])
        tally: Counter = Counter()
        waits: List[float] = []
        launches, nbytes = 0, 0
        traced_req = 0
        cpu_ns = 0
        modeled, modeled_n = 0.0, 0
        # the open-loop passes take the arrivals' time on any host, so
        # a fixed segment count fills the run and every run of a seed
        # serves the same requests
        for j in range(self.segments(seconds)):
            arrivals, queries = self.segment(j)
            traced = rec is not None and j % 2 == 0
            # each segment's open-loop passes run on a fresh pair of
            # services, so every segment meets a service of the same
            # age; the closed-loop service ages through the whole run
            # and carries the uptime ratio.  The accounted one is set up
            # ``SEGMENT_SETUPS`` times, timed with the other set-ups, so
            # set-up time is sampled across the run, not in one burst
            dev = Device()
            svc = time_setups(lambda: self.make_service(dev, True),
                              self.SEGMENT_SETUPS, rec, run)
            fsvc = self.make_service(None, True)
            mark = dev.split()
            before = _service_counters(svc)
            # lateness is read from untraced segments only
            late = [] if traced else run.late_ms
            c0 = process_time_ns()
            with phase(rec if traced else None, "acc"):
                acc, rej = self.open_loop(svc, arrivals, queries, late)
            cpu_ns += process_time_ns() - c0
            tally["rejects"] += rej
            lat = [(t.record.done_s - due) * 1e3 for due, t in acc if t]
            run.acc_ms += lat
            run.traced += [traced] * len(lat)
            traced_req += len(queries) if traced else 0
            with phase(rec if traced else None, "func"):
                func, _ = self.open_loop(fsvc, arrivals, queries, [])
            run.func_ms += [(t.record.done_s - due) * 1e3
                            for due, t in func if t]
            cmark = cdev.split()
            # a pass takes about 0.1 s, so one host stall moves a sum
            # over the passes; the median over passes is robust to it
            closed, dt = closed_pass(csvc, queries)
            run.closed_rates.append(len(queries) / dt)
            modeled += cdev.elapsed_since(cmark)
            modeled_n += len(queries)
            # each segment is checked right after its passes and its
            # services and tickets dropped
            self.check(run, queries, [
                [t for _, t in acc], [t for _, t in func], closed])
            tally.update(_service_counters(svc))
            tally.subtract(before)
            records = dev.records_since(mark)
            launches += len(records)
            nbytes += sum(r.counters.global_bytes for r in records)
            if rec is not None:
                waits += self._queue_waits(svc, rec)
        run.modeled_ms.append(modeled / modeled_n)
        n_acc = max(1, len(run.acc_ms))
        run.layer.update({
            "traced_acc_ops": traced_req,
            "traced_func_ops": traced_req,
            "plan_hit_ratio": tally["plan_hits"] / max(
                1, tally["plan_hits"] + tally["plan_misses"]),
            "batch_size_mean": tally["dispatched"]
            / max(1, tally["batches"]),
            "launches_per_op": launches / n_acc,
            "modeled_bytes_per_op": nbytes / n_acc,
            "rejects": float(tally["rejects"]),
            "memo_hit_ratio": tally["memo_hits"]
            / max(1, tally["pagerank"]),
            # what the aged closed-loop service holds after the run
            "timeline_len": float(len(cdev.timeline)),
            "log_records": float(len(csvc.log)),
        })
        if rec is not None:
            run.layer["queue_wait_ms"] = waits
        # uptime: the first segments again, on the closed-loop service
        # that has run since and on a fresh one, interleaved
        fresh = self.make_service(Device(), False)
        closed_pass(fresh, self.segment(-1)[1])
        for k in range(self.REPLAY):
            queries = self.segment(k)[1]
            dt = {}
            for aged in ((True, False) if k % 2 == 0 else (False, True)):
                closed, dt[aged] = closed_pass(csvc if aged else fresh,
                                               queries)
                self.check(run, queries, [closed])
            run.uptime_ratios.append(dt[True] / dt[False])
        run.cpu_ms.append(cpu_ns / 1e6)
        return run

    @staticmethod
    def _queue_waits(svc, rec: SpanRecorder) -> List[float]:
        """Per traced multiply: from submit to the start of the
        dispatch that served it (the dispatch span that contains the
        request's completion time)."""
        dispatches = sorted((s.start_ns, s.end_ns) for s in rec.spans
                            if s.kind == "acc"
                            and s.name == "runtime.dispatch")
        starts = [d[0] for d in dispatches]
        waits = []
        for r in svc.log.records:
            if r.kind != "multiply" or r.done_s is None:
                continue
            done_ns = r.done_s * 1e9
            i = bisect_right(starts, done_ns) - 1
            if i >= 0 and dispatches[i][1] >= done_ns:
                waits.append((dispatches[i][0] / 1e9 - r.submit_s) * 1e3)
        return waits


def _service_counters(svc) -> Counter:
    """The service's cumulative counters that the per-layer metrics
    read; a segment's share is the difference across it."""
    stats = svc.stats()
    queues = stats["queues"].values()
    tenants = stats["tenants"].values()
    return Counter({
        "dispatched": sum(q["dispatched"] for q in queues),
        "batches": sum(q["batches"] for q in queues),
        "plan_hits": sum(t["hits"] for t in tenants),
        "plan_misses": sum(t["misses"] for t in tenants),
        "memo_hits": stats["pagerank_memo"]["hits"],
        "pagerank": sum(1 for r in svc.log.records if r.kind == "pagerank"),
    })


def closed_pass(svc, queries):
    """Submit ``queries`` back to back, then drain; returns the tickets
    (``None`` for a failed submit) and the host seconds taken."""
    t0 = perf_counter()
    tickets = []
    for q in queries:
        try:
            tickets.append(svc.submit_nowait(q))
        except Exception:        # a failed request is counted
            tickets.append(None)
    svc.drain()
    return tickets, perf_counter() - t0


WORKLOADS = {w.name: w for w in (BfsRmat, SpmspvRmat, ServeMixed,
                                 SpmmSharded)}
