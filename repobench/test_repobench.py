"""Self-tests of the benchmark, on tiny instances of each workload.

    PYTHONPATH=src python -m pytest repobench -q
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import end_to_end, per_layer  # noqa: E402
from measure import result_line  # noqa: E402
from spans import SpanRecorder, install, self_times  # noqa: E402
from workloads import (BfsRmat, ServeMixed, SpmmSharded,  # noqa: E402
                       SpmspvRmat)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name, tmp_path):
    return {
        "bfs-rmat": lambda: BfsRmat(scale=8, pool_size=8, min_ops=4,
                                    replay=2),
        "spmspv-rmat": lambda: SpmspvRmat(scale=8, min_ops=4, replay=2),
        "serve-mixed": lambda: ServeMixed(hot_n=128, cold_n=64, rate=400.0,
                                          segment_s=0.05, min_segments=2),
        "spmm-sharded": lambda: SpmmSharded(scale=8, budget_bytes=16 << 10,
                                            min_ops=3, replay=1,
                                            work_root=str(tmp_path)),
    }[name]()


NAMES = [w["name"] for w in SPEC["workloads"]]


def _same(a, b) -> bool:
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "indices"):       # SparseVector
        return (np.array_equal(a.indices, b.indices)
                and np.array_equal(a.values, b.values))
    if hasattr(a, "x"):             # MultiplyQuery
        return a.matrix == b.matrix and _same(a.x, b.x)
    return bool(np.array_equal(a, b))


def _inputs(w):
    if isinstance(w, ServeMixed):
        return [w.segment(j) for j in (0, 1)]
    return [w.make_input(i) for i in (-1, 0, 1, 5)]


@pytest.mark.parametrize("name", NAMES)
def test_inputs_identical_for_a_seed(name, tmp_path):
    a, b, c = (tiny(name, tmp_path) for _ in range(3))
    a.generate(7)
    b.generate(7)
    c.generate(8)
    assert _same(_inputs(a), _inputs(b))
    assert not _same(_inputs(a), _inputs(c))


@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(name, tmp_path):
    w = tiny(name, tmp_path)
    w.generate(3)
    run = w.run(0.05, None)
    line = json.loads(result_line(SPEC, run, end_to_end(run), False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    for m in SPEC["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
    assert len(line["metrics"]) == len(SPEC["end_to_end"])

    rec = SpanRecorder()
    uninstall = install(rec)
    try:
        w = tiny(name, tmp_path)
        w.generate(3)
        run = w.run(0.05, rec)
    finally:
        uninstall()
    line = json.loads(result_line(SPEC, run, per_layer(run, rec), True))
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


@pytest.mark.parametrize("name", NAMES)
def test_modeled_time_is_bit_identical_across_runs(name, tmp_path):
    values = []
    for _ in range(2):
        w = tiny(name, tmp_path)
        w.generate(5)
        values.append(end_to_end(w.run(0.05, None))["modeled_ms_per_op"])
    assert values[0] == values[1]


def test_an_injected_wrong_result_raises_the_error_rate():
    w = BfsRmat(scale=8, pool_size=8, min_ops=4, replay=2)
    w.generate(1)
    setup = w.setup
    calls = {"n": 0}

    def bad_setup():
        bfs = setup()
        real = bfs.run

        def run(source, **kw):
            out = real(source, **kw)
            calls["n"] += 1
            if calls["n"] == 5:             # one op, after the warm-up
                out.levels[out.levels >= 0] += 1
            return out
        bfs.run = run
        return bfs

    w.setup = bad_setup
    run = w.run(0.05, None)
    assert run.failed == 1 and run.attempted > 1
    rec = SpanRecorder()
    assert per_layer(run, rec)["error_rate"] == 1 / run.attempted
    assert json.loads(result_line(SPEC, run, end_to_end(run),
                                  False))["correct"] is False


@pytest.mark.parametrize("name", ["bfs-rmat", "spmm-sharded"])
def test_traced_self_times_fit_in_op_wall_time(name, tmp_path):
    rec = SpanRecorder()
    uninstall = install(rec)
    try:
        w = tiny(name, tmp_path)
        w.generate(2)
        w.run(0.05, rec)
    finally:
        uninstall()
    selfs = self_times(rec.spans)
    ops = [s for s in rec.spans if s.name == "op"]
    assert ops
    for op in ops:
        wall_ms = (op.end_ns - op.start_ns) / 1e6
        per_thread = {}
        for s in rec.spans:
            if s.op == op.op and s.kind == op.kind:
                per_thread[s.thread] = per_thread.get(s.thread, 0.0) \
                    + selfs[s.sid]
        assert per_thread[op.thread] <= wall_ms * (1 + 1e-9)
        for total in per_thread.values():
            assert total <= wall_ms * (1 + 1e-9)
        assert all(v >= 0 for v in per_thread.values())


def test_install_patches_lookup_sites_and_uninstall_restores():
    import repro.core.batched as batched
    import repro.core.spmspv_kernels as kernels
    original = kernels.batched_union_kernel
    rec = SpanRecorder()
    uninstall = install(rec)
    try:
        assert batched.batched_union_kernel is not original
        assert batched.batched_union_kernel is kernels.batched_union_kernel
    finally:
        uninstall()
    assert batched.batched_union_kernel is original
    assert kernels.batched_union_kernel is original


def test_spans_on_worker_threads_hang_off_the_op():
    rec = SpanRecorder()
    fn = (lambda: None)
    with rec.op(0, "acc"):
        t = threading.Thread(target=rec.call, args=("w", fn, (), {}))
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    op = next(s for s in rec.spans if s.name == "op")
    worker = next(s for s in rec.spans if s.name == "w")
    assert worker.parent == op.sid and worker.thread != op.thread
