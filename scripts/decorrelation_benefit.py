#!/usr/bin/env python3
"""Head-to-head experiment: decorrelated weights vs the plug-in local
linear slope under a contaminated nuisance fit.

Usage: python scripts/decorrelation_benefit.py [B] [contamination]

Runs the `decorrelation-benefit` reference study (`dll coverage --name
decorrelation-benefit`) with the given contamination: one cross-fit per
replication, evaluated by the decorrelated and the plug-in arms, each
under a contamination along the projection and under the orthogonal
negative control. Prints win rates and mean absolute errors. Set
``DLL_JOBS`` to run replications in worker processes.
"""

import sys
from dataclasses import replace

import numpy as np

from dll.cli import REFERENCE_CONFIGS
from dll.simulate import monte_carlo_records, win_rate


def main() -> int:
    b = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    c = float(sys.argv[2]) if len(sys.argv) > 2 else 0.3
    entry = REFERENCE_CONFIGS["decorrelation-benefit"]
    arms = tuple(replace(arm, contamination=c) for arm in entry["arms"])
    _, records = monte_carlo_records(entry["config"], b, entry["options"], arms=arms)
    truth = entry["config"].target
    errors = {(r.arm, r.seed): abs(r.estimate - truth) for r in records if not r.failed}
    pair = ("dll-projection", "plugin-projection")
    seeds = sorted({s for _, s in errors if all((arm, s) in errors for arm in pair)})
    win = win_rate(records, *pair, truth)
    control = win_rate(records, "dll-orthogonal", "plugin-orthogonal", truth)
    dll_errors = [errors["dll-projection", s] for s in seeds]
    naive_errors = [errors["plugin-projection", s] for s in seeds]
    print(f"contamination {c}: decorrelated wins {win:.3f} "
          f"of {len(seeds)} replications")
    print(f"  mean |error|  decorrelated={np.mean(dll_errors):.4f}  "
          f"plug-in={np.mean(naive_errors):.4f}")
    print(f"orthogonal control: win rate {control:.3f} "
          f"(should hover near 0.5)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
