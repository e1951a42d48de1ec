"""The benchmark's workloads: inputs made from a seed, and one op per fit.

Each workload draws a pool of synthetic datasets from the workload seed
during set-up and cycles through them, one fit per op. The scenarios
copy the package's reference study configurations, so the benchmark keeps
timing the same work even if those change.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

import dll
import dll.cli
import dll.simulate
from dll import PipelineOptions, SimConfig

from check import fit_values, report_values

# Inputs of one run are seeds SEED_STRIDE * seed + k, k = 0 .. pool.
SEED_STRIDE = 10_000

HIGHDIM = SimConfig(
    n=400,
    p=300,
    gamma_true=(0.6, -0.6, 0.6) + (0.0,) * 297,
    sigma2_true=1.0,
    f1=("sine", (1.0, 1.0)),
    nuisance_components=(
        (0, "sine", (1.0, 1.0)),
        (3, "sine", (0.8, 1.3)),
        (4, "quadratic", (0.3,)),
    ),
    sigma1_true=0.5,
    x0=0.0,
)

LOWDIM = SimConfig(
    n=1000,
    p=5,
    gamma_true=(0.5, -0.5, 0.0, 0.0, 0.0),
    sigma2_true=1.0,
    f1=("sine", (1.0, 1.0)),
    nuisance_components=((0, "sine", (1.0, 1.0)), (1, "sine", (0.8, 0.7))),
    sigma1_true=0.5,
    x0=0.25,
)

UNIVARIATE = SimConfig(
    n=10_000, p=0, sigma2_true=1.0, f1=("sine", (1.0, 1.0)), sigma1_true=0.5, x0=0.0
)

# The design `dll simulate` draws, at the size of a user's CSV file.
CLI_DATA = SimConfig(
    n=10_000,
    p=50,
    gamma_true=(0.5, 0.5, 0.5) + (0.0,) * 47,
    nuisance_components=((0, "sine", (1.0, 1.0)),),
    sigma1_true=0.5,
    x0=0.0,
)


def std_normal_pdf(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)


@dataclass(frozen=True)
class Input:
    """One op's input: the dataset (or CSV path) and its true derivative."""

    seed: int
    truth: float
    dataset: Any = None
    known_cdfs: Any = None
    true_projection: Any = None
    argv: tuple[str, ...] = ()
    report: str = ""


@dataclass(frozen=True)
class Workload:
    """A scenario, the options every fit uses, and the input pool size.

    ``csv=True`` writes each dataset to a CSV file during set-up and runs
    ``dll fit`` on it; otherwise an op is one ``dll_pipeline`` call made
    as ``run_replication`` makes it.
    """

    name: str
    config: SimConfig
    options: PipelineOptions | None  # None: `dll fit` builds its own
    pool: int
    csv: bool = False

    def make_input(self, seed: int, workdir: str) -> Input:
        cfg = replace(self.config, seed=seed)
        dataset = dll.simulate.make_dataset(cfg, seed)
        if self.csv:
            data = os.path.join(workdir, f"data-{seed}.csv")
            report = os.path.join(workdir, f"fit-{seed}.json")
            dll.cli.write_csv_dataset(dataset, data)
            argv = (
                "fit", "--input", data, "--x0", repr(cfg.x0), "--seed", str(seed),
                "--rho-const", "0.05", "--lambda-const", "1.5", "--output", report,
            )
            return Input(seed, cfg.target, argv=argv, report=report)
        known = cfg.known_cdfs() if self.options.transform == "known" else None
        true_proj = (np.asarray(cfg.gamma_true, dtype=float), cfg.sigma2_true) if cfg.p else None
        return Input(seed, cfg.target, dataset, known, true_proj)

    def make_inputs(self, seed: int, workdir: str) -> tuple[list[Input], Input]:
        """The pool of timed inputs and a separate warm-up input."""
        base = SEED_STRIDE * seed
        inputs = [self.make_input(base + k, workdir) for k in range(self.pool + 1)]
        return inputs[:-1], inputs[-1]

    def call(self, inp: Input):
        """The timed op; returns what ``values`` reads."""
        if self.csv:
            if os.path.exists(inp.report):
                os.remove(inp.report)
            return dll.cli.main(list(inp.argv))
        return dll.dll_pipeline(
            inp.dataset,
            self.config.x0,
            replace(self.options, seed=inp.seed),
            inp.known_cdfs,
            true_projection=inp.true_projection,
        )

    def values(self, inp: Input, outcome) -> tuple[float, float, float, float]:
        """(estimate, variance, ci_low, ci_high) of an op's outcome."""
        if self.csv:
            return report_values(outcome, inp.report)
        return fit_values(outcome)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("highdim", HIGHDIM, PipelineOptions(transform="known"), pool=12),
        Workload(
            "lowdim-density",
            LOWDIM,
            PipelineOptions(
                transform="known", mode="general_density", error_density=std_normal_pdf
            ),
            pool=16,
        ),
        Workload("cli-fit", CLI_DATA, None, pool=1, csv=True),
        Workload(
            "univariate",
            UNIVARIATE,
            PipelineOptions(transform="known", sigma1_override=0.5),
            pool=32,
        ),
    )
}
