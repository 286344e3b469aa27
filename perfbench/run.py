"""Stage-throughput benchmark of the sfsynth pipeline.

    python3 perfbench/run.py --workload desk-circular --seed 0 \
        --seconds 50 --trace 0

Runs from the root of a source checkout (it imports ``src/sfsynth``).
Prints the environment and a summary, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced iteration with ``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# BLAS threads for every run; at most nproc.  One thread keeps runs
# steady on a shared machine, and the pipeline's Python-level loops are
# single-threaded anyway.
BLAS_THREADS = 1


def pin_blas_env(threads: int) -> None:
    """Takes effect only before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="iterate while the next iteration should end "
                             "within this many seconds (at least twice)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sfsynth" / "__init__.py").is_file():
        print(f"error: no sfsynth sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import bench                    # numpy loads here, after the pin
    from workloads import NAMES

    if args.workload not in NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(NAMES)}", file=sys.stderr)
        return 2
    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                    BLAS_THREADS)
    print("env " + json.dumps(out["env"], sort_keys=True))
    print("summary " + json.dumps(out["summary"], sort_keys=True))
    for name, m in out["result"]["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    pin_blas_env(BLAS_THREADS)
    sys.exit(main())
