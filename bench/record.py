"""Record the expected output of every op that any seed can draw.

    python3 bench/record.py

Writes bench/expected.json from the program as it is, after checking every
output against its op's identity.  The benchmark compares each output with
this record, so rerun it only when an output is meant to change, and review
the difference.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main() -> int:
    expected: dict[str, str] = {}
    outputs = []
    for workload in WORKLOADS:
        state = workloads.setup(workload)
        ops = workloads.universe(workload, state, expected)
        for op in ops:
            out = op.call()
            expected[op.key] = workloads.fingerprint(out)
            outputs.append((op, out))
        print(f"{workload}: {len(ops)} ops recorded", file=sys.stderr)
    broken = [(op.key, why) for op, out in outputs if op.identity and (why := op.identity(out))]
    for key, why in broken:
        print(f"identity failed: {key[:120]}: {why}", file=sys.stderr)
    if broken:
        return 1
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
