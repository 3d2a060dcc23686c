"""Golden protocol pinning every CDPF / CDPF-NE phase path, bit for bit.

Each phase of the completely distributed filter exists once, in
:class:`~repro.core.cdpf.CDPFTracker`; this protocol pins what those phases
produce so that a change to their implementation is falsifiable.
``record()`` was executed against the tracker as it stood *before* the
lock-step fast paths were folded into it (when ``backend="batched"`` still
ran its own transcription of every phase) and its output committed as
``cdpf_fold_golden.json``.

Two kinds of cells:

* the paper grid — CDPF and CDPF-NE at densities 5..40 (one seed, 10
  iterations, paper field) through ``run_sweep(backend="serial")``;
* one cell per path only tests reach — a non-``track`` velocity mode,
  ``adaptive_area``, ``check_consistency``, ``report_to_sink``, an
  ``anticipate_available`` hook, an i.i.d.-loss link and a scheduled-sleep
  fault plan.

Every cell pins the estimates, the byte/message ledgers (per category, per
(category, phase), per iteration, dropped), ``dropped_per_iteration`` and
``degraded_iterations``.

Regenerate (only when a change *intends* a behavior change, with
justification):

    PYTHONPATH=src:tests python -m core.cdpf_fold_protocol
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).parent / "cdpf_fold_golden.json"

N_ITERATIONS = 10
SWEEP_SEED = 0
BASE_SEED = 2011
GRID_DENSITIES = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
GRID_FAMILIES = ("CDPF", "CDPF-NE")

#: the paths only tests reach, each run once at density 10
EDGE_DENSITY = 10.0
WORLD_SEED = 4500
TRACKER_SEED = 11
RUN_SEED = 8500
EDGE_CELLS = (
    "velocity-blend",
    "adaptive-area",
    "check-consistency",
    "report-to-sink",
    "anticipate-available",
    "iid-loss",
    "scheduled-sleep",
)


def _observables(result, tracker) -> dict:
    acc = tracker.medium.accounting
    stats = tracker.stats
    return {
        # json round-trips Python floats exactly (repr-based), so the
        # comparison really is bitwise on every coordinate
        "estimates": {
            str(k): [float(v[0]), float(v[1])] for k, v in sorted(result.estimates.items())
        },
        "total_bytes": int(result.total_bytes),
        "total_messages": int(result.total_messages),
        "bytes_by_category": {c: int(b) for c, b in sorted(result.bytes_by_category.items())},
        "messages_by_category": {
            c: int(m) for c, m in sorted(acc.messages_by_category().items())
        },
        "bytes_by_category_phase": {
            f"{c}/{p}": int(b) for (c, p), b in sorted(acc.bytes_by_category_phase().items())
        },
        "bytes_per_iteration": [int(b) for b in result.bytes_per_iteration],
        "messages_per_iteration": [int(m) for m in result.messages_per_iteration],
        "dropped_bytes": int(result.dropped_bytes),
        "dropped_messages": int(result.dropped_messages),
        "dropped_by_phase": {
            p: int(m) for p, m in sorted(acc.dropped_messages_by_phase().items())
        },
        "dropped_per_iteration": [int(d) for d in stats.dropped_per_iteration],
        "degraded_iterations": int(result.degraded_iterations),
        "holders_per_iteration": [int(h) for h in stats.holders_per_iteration],
        "creators_per_iteration": [int(c) for c in stats.creators_per_iteration],
        "estimate_disagreement": [float(x) for x in stats.estimate_disagreement],
        "partial_overhearing": [int(x) for x in stats.partial_overhearing],
        "area_widenings": int(stats.area_widenings),
    }


def run_grid_cell(family: str, density: float) -> dict:
    """One paper-grid cell through the sweep engine's serial backend."""
    from repro.experiments.engine import SweepTask, run_sweep
    from repro.factory import tracker_factory

    made = []
    named = tracker_factory(family)

    def factory(scenario, rng):
        tracker = named(scenario, rng)
        made.append(tracker)
        return tracker

    (cell,), _ = run_sweep(
        [SweepTask(density, family, SWEEP_SEED)],
        factories={family: factory},
        base_seed=BASE_SEED,
        n_iterations=N_ITERATIONS,
        backend="serial",
    )
    return _observables(cell.tracking, made[0])


def _anticipate(ids):
    # a pure function of the ids, as the §V-D hook must be
    return (np.asarray(ids) % 7) != 3


def run_edge_cell(name: str) -> dict:
    """One run through a path the paper grid never takes."""
    from repro.core.cdpf import CDPFTracker
    from repro.core.propagation import PropagationConfig
    from repro.experiments.options import RunOptions
    from repro.experiments.runner import run_tracking
    from repro.network.faults import FaultPlan, ScheduledSleep
    from repro.network.links import IIDLossLink
    from repro.scenario import make_paper_scenario, make_trajectory

    world_rng = np.random.default_rng(WORLD_SEED)
    scenario = make_paper_scenario(density_per_100m2=EDGE_DENSITY, rng=world_rng)
    trajectory = make_trajectory(n_iterations=N_ITERATIONS, rng=world_rng)
    kwargs: dict = {}
    options = None
    ne = False
    if name == "velocity-blend":
        kwargs["config"] = PropagationConfig(
            predicted_area_radius=scenario.sensing_radius, velocity_mode="blend"
        )
    elif name == "adaptive-area":
        kwargs["config"] = PropagationConfig(
            predicted_area_radius=scenario.sensing_radius,
            adaptive_area=True,
            ess_target=0.9,
        )
    elif name == "check-consistency":
        kwargs["check_consistency"] = True
    elif name == "report-to-sink":
        kwargs["report_to_sink"] = True
    elif name == "anticipate-available":
        ne = True
    elif name == "iid-loss":
        scenario = scenario.with_(link_model=IIDLossLink(p_loss=0.2, seed=3))
    elif name == "scheduled-sleep":
        options = RunOptions(
            fault_plan=FaultPlan(
                events=(ScheduledSleep(start=2, end=8, period_s=60.0, duty_cycle=0.8),)
            )
        )
    else:
        raise KeyError(name)
    tracker = CDPFTracker(
        scenario,
        rng=np.random.default_rng(TRACKER_SEED),
        neighborhood_estimation=ne,
        **kwargs,
    )
    if name == "anticipate-available":
        tracker.anticipate_available = _anticipate
    result = run_tracking(
        tracker, scenario, trajectory, rng=np.random.default_rng(RUN_SEED), options=options
    )
    return _observables(result, tracker)


def grid_keys() -> list[tuple[str, float]]:
    return [(f, d) for f in GRID_FAMILIES for d in GRID_DENSITIES]


def record() -> dict:
    grid = {f"{f}@{d:g}": run_grid_cell(f, d) for f, d in grid_keys()}
    edge = {name: run_edge_cell(name) for name in EDGE_CELLS}
    return {
        "protocol": {
            "n_iterations": N_ITERATIONS,
            "sweep_seed": SWEEP_SEED,
            "base_seed": BASE_SEED,
            "edge_density": EDGE_DENSITY,
            "world_seed": WORLD_SEED,
            "tracker_seed": TRACKER_SEED,
            "run_seed": RUN_SEED,
        },
        "grid": grid,
        "edge": edge,
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
