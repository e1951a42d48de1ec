#!/usr/bin/env python3
"""Sensitivity of the interval and point estimate to the bandwidth.

Usage: python scripts/bandwidth_sweep.py [n] [seed]

Simulates one dataset of the ``lowdim`` reference study's design with n
rows, cross-fits it once, sweeps a bandwidth grid around the plug-in
default, and prints estimate / CI / effective sample size per bandwidth.
"""

import sys
from dataclasses import replace

from dll.cli import REFERENCE_CONFIGS
from dll.estimator import PipelineOptions, cross_fit, default_bandwidth, evaluate
from dll.simulate import make_dataset


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 1000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    cfg = replace(REFERENCE_CONFIGS["lowdim"]["config"], n=n, seed=seed)
    ds = make_dataset(cfg)
    options = PipelineOptions(seed=seed)
    h0 = default_bandwidth(ds.x1, cfg.x0)
    print(f"true derivative {cfg.target:.4f}; plug-in default h = {h0:.4f}")
    cf = cross_fit(ds, options)  # the nuisance fits do not depend on h
    for mult in (0.5, 0.75, 1.0, 1.5, 2.0):
        h = mult * h0
        fit = evaluate(cf, cfg.x0, replace(options, h=h))
        print(
            f"h={h:.4f}  estimate={fit.estimate:+.4f}  "
            f"CI=({fit.ci_low:+.3f}, {fit.ci_high:+.3f})  "
            f"window n={fit.n_effective}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
