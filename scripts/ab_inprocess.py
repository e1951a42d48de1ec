#!/usr/bin/env python3
"""Time the benchmark's ``highdim`` op of two source trees in one process.

Usage: python scripts/ab_inprocess.py PARENT_TREE CHANGE_TREE [--rounds R]

Copies each tree's ``src/dll`` into a temporary directory under a package
name of its own (``dll_parent``, ``dll_change``); every import inside the
package is relative, so the two copies load side by side. The op is the
benchmark's ``highdim`` op: a ``dll_pipeline`` fit of the ``highdim``
reference design (``cli.REFERENCE_CONFIGS``) through its known CDFs, with
the true projection. Each side builds its INPUTS inputs with its own
``SimConfig``. Each round runs every input on both sides, back to back,
and the side that goes first alternates, so host drift falls on both
sides alike. Prints each side's median op time, their ratio (change over
parent), the pairs the change won and the largest relative difference of
the two sides' estimates.
"""

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

INPUTS = 12
SIDES = ("parent", "change")


def load(tree: str, name: str, into: Path):
    """The package of ``tree/src/dll``, imported as ``name``."""
    shutil.copytree(Path(tree) / "src" / "dll", into / name)
    for module in ("cli", "simulate"):
        importlib.import_module(f"{name}.{module}")
    return importlib.import_module(name)


def make_ops(pkg) -> list:
    """One closure per input: a fit of the side's own ``highdim`` input."""
    base = pkg.cli.REFERENCE_CONFIGS["highdim"]["config"]
    ops = []
    for k in range(INPUTS):
        cfg = replace(base, seed=base.seed + k)
        dataset = pkg.simulate.make_dataset(cfg, cfg.seed)
        options = pkg.PipelineOptions(transform="known", seed=cfg.seed)
        known = cfg.known_cdfs()
        truth = (np.asarray(cfg.gamma_true, dtype=float), cfg.sigma2_true)

        def op(x0=cfg.x0, dataset=dataset, options=options, known=known, truth=truth):
            return pkg.dll_pipeline(dataset, x0, options, known, true_projection=truth)

        ops.append(op)
    return ops


def timed(op) -> tuple[float, float]:
    start = time.perf_counter()
    fit = op()
    return time.perf_counter() - start, fit.estimate


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        trees = (args.parent_tree, args.change_tree)
        ops = [make_ops(load(tree, f"dll_{side}", Path(tmp))) for tree, side in zip(trees, SIDES)]
        for side_ops in ops:
            side_ops[0]()  # warm-up, untimed
        times = ([], [])
        estimates = ({}, {})
        for rnd in range(args.rounds):
            for k in range(INPUTS):
                order = (0, 1) if (rnd * INPUTS + k) % 2 == 0 else (1, 0)
                for side in order:
                    wall, estimate = timed(ops[side][k])
                    times[side].append(wall)
                    estimates[side][k] = estimate
    medians = [statistics.median(t) for t in times]
    for side, median, t in zip(SIDES, medians, times):
        print(f"{side}: median op {1e3 * median:.2f} ms over {len(t)} ops")
    won = sum(b < a for a, b in zip(*times))
    print(f"ratio change/parent {medians[1] / medians[0]:.3f}; "
          f"change faster in {won} of {len(times[0])} pairs")
    diff = max(abs(estimates[1][k] - a) / abs(a) if estimates[1][k] != a else 0.0
               for k, a in estimates[0].items())
    print(f"largest relative estimate difference: {diff:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
