"""Lock-step sweep execution: shared worlds, per-tracker pipelines.

The process-pool engine parallelizes *across* cells; this backend keeps
every cell in-process and changes only the schedule.  Two things make it
cheaper than running the same cells one by one through the serial path:

* **shared worlds** — the engine's streams key the deployment, trajectory
  and sensing noise on ``(density, seed)`` only, so every algorithm at one
  cell sees the same world.  The scheduler builds each world (scenario,
  trajectory, every iteration's :class:`~repro.scenario.StepContext`, the
  KD-tree its degree counts use) once and shares it across the algorithm
  groups instead of rebuilding it per cell;
* **same-``(density, algorithm)`` groups** — the cells of one group advance
  together, iteration by iteration, each through its *own* tracker's
  :meth:`step` (its :class:`~repro.runtime.PhasePipeline`), so every cell
  emits the same phase events, timings and ledgers as a serial run.

No phase body lives here: every CDPF / CDPF-NE phase exists once, in
:class:`~repro.core.cdpf.CDPFTracker`, and both backends run it.  Each cell
keeps its own tracker instance and RNG streams, so the batched backend is
bit-identical to the serial one by construction.  (Stacking the cells of a
group into cross-cell kernel calls was measured at noise level once the
tracker's phases carried the fast reliable-medium paths, and was removed.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..factory import _NamedFactory
from ..scenario import Scenario, StepContext, make_paper_scenario, make_trajectory
from .runner import generate_step_context, summarize_tracking_run

__all__ = ["partition_batchable", "run_lockstep"]

#: Default-config tracker families routed to the lock-step scheduler.
_BATCHABLE_FAMILIES = frozenset({"CDPF", "CDPF-NE"})


def partition_batchable(pending):
    """Split ``(index, spec)`` pairs into (lock-steppable, everything else).

    Only the registry's own default factories are batchable: a custom
    factory may configure the tracker arbitrarily, so it goes down the
    per-cell path the factory was written against.
    """
    batchable, rest = [], []
    for item in pending:
        factory = item[1].factory
        if isinstance(factory, _NamedFactory) and factory.name in _BATCHABLE_FAMILIES:
            batchable.append(item)
        else:
            rest.append(item)
    return batchable, rest


# ---------------------------------------------------------------------------
# shared worlds: one scenario/trajectory/sensing pass per (density, seed)
# ---------------------------------------------------------------------------


@dataclass
class _World:
    """Everything algorithm-independent about one (density, seed) cell."""

    scenario: Scenario
    trajectory: object
    contexts: list[StepContext]


def _generate_contexts(scenario, trajectory, rng, n_iterations) -> list[StepContext]:
    """The whole run's sensing-layer outputs, consuming ``rng`` exactly as
    the per-iteration :func:`generate_step_context` calls of a serial run."""
    return [
        generate_step_context(scenario, trajectory, k, rng) for k in range(n_iterations + 1)
    ]


def _build_world(spec) -> _World:
    from .engine import task_seed_sequences

    task = spec.task
    streams = task_seed_sequences(spec.base_seed, task.density, task.seed)
    world_rng = np.random.default_rng(streams["world"])
    scenario = make_paper_scenario(
        density_per_100m2=task.density, rng=world_rng, **spec.scenario_kwargs
    )
    trajectory = make_trajectory(
        n_iterations=spec.n_iterations, rng=world_rng, **spec.trajectory_kwargs
    )
    contexts = _generate_contexts(
        scenario, trajectory, np.random.default_rng(streams["sensing"]), spec.n_iterations
    )
    # every cell of the world queries node degrees through this cache; the
    # KD-tree answers those batches several times faster than per-node
    # queries and is worth its one-time cost for a world many cells share
    scenario.neighborhood_for(scenario.deployment.positions).build_tree()
    return _World(scenario=scenario, trajectory=trajectory, contexts=contexts)


# ---------------------------------------------------------------------------
# per-group lock-step execution
# ---------------------------------------------------------------------------


@dataclass
class _Cell:
    """One task's live state inside a lock-step group."""

    index: int
    spec: object
    world: _World
    tracker: object
    estimates: dict[int, np.ndarray] = field(default_factory=dict)
    detectors_per_iteration: list[int] = field(default_factory=list)

    def step(self, k: int) -> None:
        """Iteration ``k`` through the cell's own tracker, filing the
        estimate exactly as :class:`~repro.experiments.runner.TrackingRun`."""
        ctx = self.world.contexts[k]
        self.detectors_per_iteration.append(int(np.asarray(ctx.detectors).size))
        est = self.tracker.step(ctx)
        if est is None:
            return
        ref = self.tracker.estimate_iteration()
        if ref is None:
            raise RuntimeError(
                f"{self.tracker.name} returned an estimate without an iteration reference"
            )
        if 0 <= ref < len(self.world.contexts):
            self.estimates[ref] = np.asarray(est, dtype=np.float64).copy()


def run_lockstep(batchable) -> Iterator[tuple[int, "object"]]:
    """Execute batchable ``(index, spec)`` pairs; yields ``(index, CellResult)``.

    Cells are grouped by ``(density, algorithm)`` and each group advances in
    lock-step; worlds (deployment, trajectory, sensing outputs) are built
    once per ``(density, seed)`` and shared across the algorithm groups.
    Results are yielded group by group, so an interrupt loses at most the
    group in flight.
    """
    from .engine import CellResult, task_seed_sequences

    groups: dict[tuple[float, str], list] = {}
    world_refs: dict[tuple[float, int], int] = {}
    for index, spec in batchable:
        task = spec.task
        groups.setdefault((task.density, task.algorithm), []).append((index, spec))
        world_refs[(task.density, task.seed)] = world_refs.get((task.density, task.seed), 0) + 1
    worlds: dict[tuple[float, int], _World] = {}

    for items in groups.values():
        t0 = time.perf_counter()
        cells: list[_Cell] = []
        for index, spec in items:
            task = spec.task
            world = worlds.get((task.density, task.seed))
            if world is None:
                world = worlds[(task.density, task.seed)] = _build_world(spec)
            streams = task_seed_sequences(spec.base_seed, task.density, task.seed)
            tracker = spec.factory(world.scenario, np.random.default_rng(streams["tracker"]))
            cells.append(_Cell(index=index, spec=spec, world=world, tracker=tracker))
        for k in range(cells[0].spec.n_iterations + 1):
            for cell in cells:
                cell.step(k)
        elapsed = (time.perf_counter() - t0) / len(cells)
        for cell in cells:
            tracking = summarize_tracking_run(
                cell.tracker, cell.world.trajectory, cell.estimates, cell.detectors_per_iteration
            )
            task = cell.spec.task
            yield cell.index, CellResult(
                density=task.density,
                algorithm=task.algorithm,
                seed=task.seed,
                rmse=tracking.rmse,
                total_bytes=int(tracking.total_bytes),
                total_messages=int(tracking.total_messages),
                coverage=tracking.error.coverage,
                elapsed_s=elapsed,
                tracking=tracking,
            )
            world_refs[(task.density, task.seed)] -= 1
            if not world_refs[(task.density, task.seed)]:
                worlds.pop((task.density, task.seed), None)
