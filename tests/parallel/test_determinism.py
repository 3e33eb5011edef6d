"""Pool determinism under an evicting budget: repeated runs give
bit-identical timelines, ``shard_load`` counters included, and no more
than ``workers`` tasks are ever in flight."""

import threading

import numpy as np
import pytest

from repro.gpusim import Device
from repro.parallel import ParallelConfig
from repro.parallel import executor as executor_mod
from repro.shards import ShardedSpMSpV, ShardedTiledMatrix
from repro.vectors import random_sparse_vector

from ..conftest import random_coo

N = 160
WORKERS = 2


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    ShardedTiledMatrix.from_coo(random_coo(N, N, 0.1, seed=41), nt=16,
                                n_shards=8, store_dir=root)
    return root


def evicting_engine(root, backend, device):
    sm = ShardedTiledMatrix.open(root)
    total = sum(sm.store.nbytes(s) for s in sm.store.shard_ids)
    sm = ShardedTiledMatrix.open(root, budget_bytes=total // 3)
    return ShardedSpMSpV(sm, device=device,
                         parallel=ParallelConfig(workers=WORKERS,
                                                 backend=backend))


def workload(op):
    rng = np.random.default_rng(3)
    outs = []
    for i in range(4):
        outs.append(op.multiply_block(rng.random((N, 4))))
        outs.append(op.multiply(random_sparse_vector(N, 0.3, seed=i),
                                output="dense"))
    return outs


def run(root, backend):
    dev = Device()
    op = evicting_engine(root, backend, dev)
    try:
        outs = workload(op)
        stats = op._executor.stats()
    finally:
        op._executor.close()
    return dev.timeline, outs, stats


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_timelines_bit_identical_across_runs(store_dir, backend):
    t1, y1, s1 = run(store_dir, backend)
    t2, y2, s2 = run(store_dir, backend)
    loads = [r for r in t1 if r.name == "shard_load"]
    assert loads and s1["evictions"] > 0     # the budget really evicts
    assert t1 == t2
    for a, b in zip(y1, y2):
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
    # one task per worker with work, per multiply
    assert s1["tasks"] <= WORKERS * len(y1)


def test_backends_agree(store_dir):
    # the worker label is the scheduler's worker id on every backend,
    # so the serial, thread and process streams match record for record
    timelines = [run(store_dir, b)[0]
                 for b in ("serial", "thread", "process")]
    assert timelines[0] == timelines[1] == timelines[2]


def test_at_most_workers_tasks_in_flight(store_dir, monkeypatch):
    inner = executor_mod._run_chunk
    lock = threading.Lock()
    state = {"now": 0, "peak": 0, "calls": 0}

    def counting(*args, **kwargs):
        with lock:
            state["now"] += 1
            state["calls"] += 1
            state["peak"] = max(state["peak"], state["now"])
        try:
            return inner(*args, **kwargs)
        finally:
            with lock:
                state["now"] -= 1

    monkeypatch.setattr(executor_mod, "_run_chunk", counting)
    run(store_dir, "thread")
    assert state["calls"] > 0
    assert state["peak"] <= WORKERS
