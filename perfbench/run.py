"""mpo benchmark: one seeded workload per run, offline, stdlib only.

    python3 perfbench/run.py --workload refine_llm --seed 1 --seconds 10 --trace 0

Workloads: refine_llm, refine_replay, eval_mcq (see README.md). mpo is
imported from ``src/`` next to this directory; without it the run prints an
error and exits 2. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="mpo benchmark")
    parser.add_argument("--workload", required=True, choices=("refine_llm", "refine_replay", "eval_mcq"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_sources() -> bool:
    """Put the checkout's mpo sources and this directory first on the path."""
    if not (SOURCES / "mpo" / "__init__.py").is_file():
        print(f"perfbench: no mpo sources at {SOURCES / 'mpo'}", file=sys.stderr)
        return False
    for path in (str(HERE), str(SOURCES)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_sources():
        return 2
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
