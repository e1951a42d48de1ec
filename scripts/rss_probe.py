#!/usr/bin/env python3
"""Peak resident memory after each of N in-process `dll fit` calls.

Usage: python scripts/rss_probe.py N FIT_ARGS...

Runs `dll fit FIT_ARGS` N times in this one process, for example
`python scripts/rss_probe.py 40 --input data.csv --x0 0 --output fit.json`,
and prints after each call its exit code and the process's peak resident
set size (`ru_maxrss`, in MB as `benchmarks/run.py` reports it). Identical
calls do identical work, so a peak that still steps up from one call to
the next comes from how the allocator lays out the heap. Exits 1 if any
call exits non-zero.
"""

import resource
import sys

from dll.cli import main as dll_main


def main(argv: list[str]) -> int:
    if len(argv) < 2 or not argv[0].isdigit():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    failed = False
    for op in range(1, int(argv[0]) + 1):
        code = dll_main(["fit", *argv[1:]])
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"op {op}: exit {code}, peak_rss_mb {peak_mb:.1f}", flush=True)
        failed |= code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
