#!/usr/bin/env python3
"""Run one of the named reference coverage studies and print the report.

Usage: python scripts/coverage_study.py [name] [B]

Names: lowdim, highdim, univariate-oracle. Studies with nuisance
covariates also report `oracle_coverage`, the coverage of the same fits
evaluated with the exact-law weights.
Set DLL_JOBS=2 (or more) to run replications in worker processes.
"""

import dataclasses
import json
import sys

from dll.cli import REFERENCE_CONFIGS
from dll.simulate import monte_carlo_records


def main() -> int:
    name = sys.argv[1] if len(sys.argv) > 1 else "lowdim"
    if name not in REFERENCE_CONFIGS:
        print(f"unknown study {name!r}; choose from {sorted(REFERENCE_CONFIGS)}")
        return 2
    entry = REFERENCE_CONFIGS[name]
    b = int(sys.argv[2]) if len(sys.argv) > 2 else entry["b"]
    report, _ = monte_carlo_records(entry["config"], b, entry["options"])
    print(json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
