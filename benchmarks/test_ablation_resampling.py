"""Ablation — resampling schemes on the centralized substrate.

SIR's resampling scheme is a classic design choice (the paper adopts plain
SIR [3]); this bench compares the four implemented schemes on the CPF
tracker.
"""

import numpy as np

from repro.baselines.cpf import CPFTracker
from repro.experiments.report import render_table
from repro.experiments.runner import run_tracking
from repro.filters.resampling import RESAMPLERS
from repro.scenario import make_paper_scenario, make_trajectory


def run_cpf(resampler, n_seeds=4, n_particles=1000):
    rmses = []
    for seed in range(n_seeds):
        rng = np.random.default_rng(4100 + seed)
        scenario = make_paper_scenario(density_per_100m2=20.0, rng=rng)
        trajectory = make_trajectory(n_iterations=10, rng=rng)
        tracker = CPFTracker(
            scenario,
            rng=np.random.default_rng(seed),
            resampler=resampler,
            n_particles=n_particles,
        )
        result = run_tracking(
            tracker, scenario, trajectory, rng=np.random.default_rng(8100 + seed)
        )
        rmses.append(result.rmse)
    return float(np.nanmean(rmses))


def test_resampling_schemes(report_sink, benchmark):
    def sweep():
        return {name: run_cpf(name) for name in RESAMPLERS}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report_sink(
        render_table(
            ["scheme", "CPF RMSE (m)"],
            [[k, v] for k, v in results.items()],
            title="Ablation: resampling scheme (CPF, 1000 particles, density 20)",
        )
    )
    # all schemes track; none catastrophically worse than the best
    best = min(results.values())
    assert best < 1.0
    assert max(results.values()) < 4.0 * max(best, 0.3)

