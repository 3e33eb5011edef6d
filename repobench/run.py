"""Benchmark entry point.

    python3 repobench/run.py --workload bfs-rmat --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Measures in a fresh child process
(``measure.py``) whose environment pins BLAS/OpenMP pools to one
thread, puts ``src`` on the import path and drops the library's
``REPRO_*`` switches, so ambient settings cannot change what is
measured.  The child prints the result line; this process relays its
exit status, and kills it if it runs past the time limit.
"""

import os
import subprocess
import sys
from pathlib import Path

#: Hard limit on one run, set-up and checks included.
TIME_LIMIT_S = 170

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("repobench: no src/repro here; run from the repository "
              "root", file=sys.stderr)
        return 2
    child = Path(__file__).resolve().parent / "measure.py"
    proc = subprocess.Popen([sys.executable, str(child), *sys.argv[1:]],
                            env=child_env(root))
    try:
        return proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"repobench: run exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
