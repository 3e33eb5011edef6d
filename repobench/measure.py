"""One benchmark run in a fresh process (started by ``run.py``).

Prints a human-readable report on stderr and, as the last line of
stdout, the result object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The traced
run also writes a Chrome trace and the per-layer self-time table to
``.repobench-run/``.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import end_to_end, per_layer, report_lines  # noqa: E402
from spans import (SpanRecorder, format_table, install,  # noqa: E402
                   self_time_table, write_chrome_trace)
from workloads import WORKLOADS  # noqa: E402

#: Scratch and trace output, inside the checkout.
RUN_DIR = Path(".repobench-run")


def result_line(spec: dict, run, metrics: dict, traced: bool) -> str:
    declared = spec["per_layer" if traced else "end_to_end"]
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())

    kwargs = {}
    if args.workload != "serve-mixed":      # its graphs are small
        kwargs["graph_dir"] = str(RUN_DIR / "graphs")
    if args.workload == "spmm-sharded":
        kwargs["work_root"] = str(RUN_DIR)
    workload = WORKLOADS[args.workload](**kwargs)
    workload.generate(args.seed)
    rec = None
    if args.trace:
        rec = SpanRecorder()
        uninstall = install(rec)
    try:
        run = workload.run(args.seconds, rec)
    finally:
        if rec is not None:
            uninstall()
    if rec is None:
        metrics = end_to_end(run)
    else:
        metrics = per_layer(run, rec)
        RUN_DIR.mkdir(exist_ok=True)
        stem = RUN_DIR / f"trace-{args.workload}-{args.seed}"
        write_chrome_trace(rec.spans, f"{stem}.json")
        table = format_table(self_time_table(rec.spans))
        Path(f"{stem}.txt").write_text(table + "\n")
        print(table, file=sys.stderr)
    for line in report_lines(run):
        print(f"{args.workload}: {line}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g}", file=sys.stderr)
    print(result_line(spec, run, metrics, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
