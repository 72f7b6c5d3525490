"""Check that the seed changes a workload's instances but not its load.

    python3 bench/check_load.py [SEED ...]

Builds one pass of every workload for each seed (default 1 and 2) without
running it, and exits non-zero unless every seed gives the same number of
ops per kind and per series size, while the ops themselves differ.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main(seeds: list[int]) -> int:
    expected = workloads.load_expected()
    status = 0
    for workload in WORKLOADS:
        passes = [workloads.build(workload, seed, workloads.setup(workload), expected) for seed in seeds]
        loads = [workloads.load(ops) for ops in passes]
        keys = [sorted(op.key for op in ops) for ops in passes]
        same_load = all(load == loads[0] for load in loads)
        distinct = len({tuple(k) for k in keys}) == len(seeds)
        print(f"{workload}: {len(passes[0])} ops per pass, kinds {loads[0]['kinds']}, "
              f"same load: {same_load}, instances differ: {distinct}")
        if not same_load or not distinct:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [1, 2]))
