#!/usr/bin/env python3
"""Compare the per-op estimates of two benchmark result records.

Usage: python scripts/estimate_parity.py A.json B.json

Reads two records written by ``benchmarks/run.py`` (for example one run
of the parent commit and one of a change, same workload and seed). Ops
are matched by input seed: the k-th op on an input in A with the k-th op
on the same input in B. Prints the number of matched ops and the largest
absolute and relative difference of their estimates. Exits 0 when every
matched estimate is identical, 1 when any differs (a failed op against a
finished one counts as a difference), and 2 when nothing can be matched.
"""

import json
import math
import sys
from collections import defaultdict


def estimates_by_input(path: str) -> tuple[str, dict[int, list]]:
    with open(path) as fh:
        record = json.load(fh)
    by_input = defaultdict(list)
    for _op, seed, estimate, _wall_s in record["ops"]:
        by_input[seed].append(estimate)
    return record["workload"], by_input


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    (work_a, ops_a), (work_b, ops_b) = (estimates_by_input(p) for p in argv)
    if work_a != work_b:
        print(f"different workloads: {work_a} and {work_b}", file=sys.stderr)
        return 2
    pairs = [
        pair for seed in ops_a.keys() & ops_b.keys() for pair in zip(ops_a[seed], ops_b[seed])
    ]
    if not pairs:
        print("no ops on a common input", file=sys.stderr)
        return 2
    differ, max_abs, max_rel = 0, 0.0, 0.0
    for a, b in pairs:
        if a == b:
            continue
        differ += 1
        gap = math.inf if a is None or b is None else abs(a - b)
        max_abs = max(max_abs, gap)
        max_rel = max(max_rel, gap / abs(a) if a else math.inf)
    print(f"{work_a}: {len(pairs)} matched ops, {differ} differ; "
          f"max abs diff {max_abs:.3g}, max rel diff {max_rel:.3g}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
