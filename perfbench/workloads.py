"""The three workloads: what each runs, times, checks and traces.

Every workload has an untraced measurement (:func:`measure`) that yields the
end-to-end metrics and a traced one (:func:`trace`) that yields the
per-layer metrics.  Both make their inputs from the seed alone, and both
check the program's outputs outside the timed regions.

Three things keep the figures steady.  A grid run repeats whole passes over
a fixed set of cell types and reports medians per type, so every run has the
same mix of cheap and expensive cells.  Service latencies are percentiles
over a thousand or so steps.  And every timing is rescaled by the host speed
measured, around it, with a fixed reference probe run between the timed
calls (a fresh interpreter for set-ups), because this host's throughput
drifts by more than a run can average.
"""

from __future__ import annotations

import asyncio
import os
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import END_TO_END, FAMILY_PHASES, MOVES
from .stats import HostSpeed, StartupSpeed, median, percentile, percentile_supported
from .tracing import ROOT, LayerTotals, Tracer, install, reduce_spans

__all__ = ["Outcome", "Scale", "FULL", "SMOKE", "measure", "setup_once", "trace"]

SERIAL_FAMILIES = ("CPF", "SDPF", "CDPF", "CDPF-NE")
BATCHED_FAMILIES = ("CDPF", "CDPF-NE")
#: seed of the set-up warm-up cells: the same set-up work on every run
WARMUP_SEED = 7


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run."""

    serial_densities: tuple[float, ...] = (5.0, 10.0, 20.0, 40.0)
    batched_densities: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    batched_seeds: int = 4  # cells per lock-step group
    n_iterations: int = 10
    #: grid workloads: world builds timed per pass for session_create_ms_p50
    create_density: float = 20.0
    create_probes_per_pass: int = 8
    #: service sessions: the paper scenario, short enough to stay in the field
    session_density: float = 20.0
    session_iterations: int = 10
    setup_repeats: int = 5
    check_cells: int = 3
    check_sessions: int = 2
    trace_sessions: int = 6


FULL = Scale()
SMOKE = Scale(
    serial_densities=(5.0,),
    batched_densities=(5.0,),
    batched_seeds=2,
    n_iterations=3,
    create_density=5.0,
    create_probes_per_pass=2,
    session_density=5.0,
    session_iterations=3,
    setup_repeats=1,
    check_cells=1,
    check_sessions=1,
    trace_sessions=2,
)


@dataclass
class Outcome:
    """One run's result line plus what is printed above it."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    #: the spans of a traced run
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def fail(self, units: int, message: str) -> None:
        self.failed += units
        if len(self.problems) < 20:
            self.problems.append(message)


def _peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of this process (plus its largest finished child)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _families(workload: str) -> tuple[str, ...]:
    return SERIAL_FAMILIES if workload == "grid-serial" else BATCHED_FAMILIES


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_once(workload: str, scale: Scale):
    """Grid set-up: imports, factories and one warm-up cell per family.

    Returns the factories.  Timed in a fresh interpreter by the set-up probe,
    and run untimed in the measuring process itself.
    """
    from repro.experiments.engine import SweepTask, run_sweep
    from repro.factory import tracker_factory

    families = _families(workload)
    factories = {name: tracker_factory(name) for name in families}
    density = scale.serial_densities[0]
    if workload == "grid-serial":
        for name in families:
            run_sweep([SweepTask(density, name, 0)], factories=factories,
                      backend="serial", base_seed=WARMUP_SEED,
                      n_iterations=scale.n_iterations)
    else:
        tasks = [SweepTask(density, name, s) for s in range(2) for name in families]
        run_sweep(tasks, factories=factories, backend="batched",
                  base_seed=WARMUP_SEED, n_iterations=scale.n_iterations)
    return factories


def _probe_setup(workload: str, smoke: bool) -> float:
    """Set-up seconds of one fresh interpreter (see ``run.py --setup-probe``)."""
    run_py = Path(__file__).with_name("run.py")
    cmd = [sys.executable, str(run_py), "--setup-probe", workload]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(
        cmd, cwd=run_py.parent.parent, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks shared by the grid workloads
# ---------------------------------------------------------------------------


def _check_cells(cells, truths: dict, out: Outcome) -> None:
    """Invariant oracles on every cell, plus the paired-seed property: every
    algorithm at one (density, seed) saw the same target trajectory
    (``truths`` collects the trajectories seen so far)."""
    import numpy as np
    from repro.runtime.invariants import (
        InvariantViolation,
        check_reliable_run_clean,
        check_result_consistency,
    )

    for cell in cells:
        result = cell.tracking
        try:
            check_result_consistency(result)
            check_reliable_run_clean(result)
            if not np.isfinite(cell.rmse) or cell.total_bytes <= 0:
                raise InvariantViolation(
                    f"rmse {cell.rmse}, {cell.total_bytes} bytes"
                )
        except InvariantViolation as exc:
            out.fail(1, f"cell {cell.key}: {exc}")
            continue
        key = (cell.density, cell.seed)
        seen = truths.setdefault(key, result.truth)
        if not np.array_equal(seen, result.truth):
            out.fail(1, f"cell {cell.key}: unpaired trajectory")


def _pick(rng_seed: int, items: list, k: int) -> list:
    import numpy as np

    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(len(items), size=min(k, len(items)), replace=False)
    return [items[i] for i in sorted(picks)]


def _check_serial_replay(cells, factories, seed: int, scale: Scale, out: Outcome,
                         what: str) -> None:
    """Re-run a sample of cells on the serial path; require bit-identity."""
    from repro.config import run_fingerprint
    from repro.experiments.engine import SweepTask, run_sweep

    for cell in _pick(seed, list(cells), scale.check_cells):
        task = SweepTask(cell.density, cell.algorithm, cell.seed)
        (again,), _ = run_sweep([task], factories=factories, backend="serial",
                                base_seed=seed, n_iterations=scale.n_iterations)
        if run_fingerprint(again.tracking) != run_fingerprint(cell.tracking):
            out.fail(1, f"cell {cell.key}: {what} differs from a serial replay")


def _create_probes(seed: int, pass_index: int, families, scale: Scale) -> list[float]:
    """Time building cell worlds at one density: the grid's analog of
    creating a session (deployment, trajectory and tracker)."""
    import numpy as np
    from repro.factory import make_tracker
    from repro.scenario import make_paper_scenario, make_trajectory

    times = []
    # build 0 is not timed: it only returns the allocator to a steady state
    # after the pass's large cells, which otherwise shows up as page faults
    for j in range(scale.create_probes_per_pass + 1):
        rng = np.random.default_rng((seed, pass_index, j))
        t0 = time.perf_counter()
        scenario = make_paper_scenario(scale.create_density, rng=rng)
        make_trajectory(n_iterations=scale.n_iterations, rng=rng)
        make_tracker(families[j % len(families)], scenario, rng=rng)
        if j:
            times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# grid workloads
# ---------------------------------------------------------------------------


def _grid_calls(workload: str, scale: Scale, pass_index: int):
    """One pass as a list of (type key, task list) run_sweep calls.

    grid-serial: one call per cell.  grid-batched: one call per density,
    holding ``batched_seeds`` cells of each family (so each lock-step group
    stacks that many cells and worlds are shared across the families).
    """
    from repro.experiments.engine import SweepTask

    if workload == "grid-serial":
        return [
            ((d, name), [SweepTask(d, name, pass_index)])
            for d in scale.serial_densities
            for name in SERIAL_FAMILIES
        ]
    seeds = range(pass_index * scale.batched_seeds, (pass_index + 1) * scale.batched_seeds)
    return [
        ((d,), [SweepTask(d, name, s) for s in seeds for name in BATCHED_FAMILIES])
        for d in scale.batched_densities
    ]


def _backend(workload: str) -> str:
    return "serial" if workload == "grid-serial" else "batched"


def _measure_grid(workload: str, seed: int, seconds: float, scale: Scale,
                  smoke: bool) -> Outcome:
    from repro.experiments.engine import run_sweep

    out = Outcome()
    startup = StartupSpeed()
    startup.probe()
    setup = []
    for _ in range(scale.setup_repeats):
        setup.append(_probe_setup(workload, smoke))
        startup.probe()
    factories = setup_once(workload, scale)
    backend = _backend(workload)
    steps_per_cell = scale.n_iterations + 1
    host = HostSpeed()

    # (type key, seconds, index of the host probe taken just before)
    calls: list[tuple[tuple, float, int]] = []
    cells_per_call: dict[tuple, int] = {}
    creates: list[tuple[float, int]] = []
    truths: dict = {}
    replay = []  # the first pass, re-run serially once timing is over
    n_cells = 0
    passes = 0
    t_start = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_start < seconds:
        # the pass's first call takes the next probe, right after these
        creates += [(t, len(host.samples))
                    for t in _create_probes(seed, passes, _families(workload), scale)]
        for key, tasks in _grid_calls(workload, scale, passes):
            host.probe()
            t0 = time.perf_counter()
            done, _ = run_sweep(tasks, factories=factories, backend=backend,
                                base_seed=seed, n_iterations=scale.n_iterations)
            calls.append((key, time.perf_counter() - t0, len(host.samples) - 1))
            cells_per_call[key] = len(tasks)
            # check now and keep nothing: what a run retains must not grow
            # with the number of passes, or peak memory would follow speed
            _check_cells(done, truths, out)
            n_cells += len(done)
            if passes == 0:
                replay.extend(done)
        passes += 1
    measured_s = time.perf_counter() - t_start

    what = "batched cell" if workload == "grid-batched" else "serial cell"
    _check_serial_replay(replay, factories, seed, scale, out, what)
    out.attempted = n_cells + len(creates)

    def figures(slowdown_at) -> dict[str, float]:
        # per-type medians: a slow moment hits one sample of one type, not
        # the figure; every run has the same mix of types, whatever the seed
        type_times: dict[tuple, list[float]] = {}
        for key, seconds, probe in calls:
            type_times.setdefault(key, []).append(seconds / slowdown_at(probe))
        type_s = {key: median(ts) for key, ts in type_times.items()}
        cells_per_s = sum(cells_per_call.values()) / sum(type_s.values())
        step_ms = [
            1000.0 * type_s[key] / (cells_per_call[key] * steps_per_cell) for key in type_s
        ]
        return {
            "cells_per_s": cells_per_s,
            "steps_per_s": cells_per_s * steps_per_cell,
            "step_ms_p50": percentile(step_ms, 50),
            "step_ms_p95": percentile(step_ms, 95),
            "session_create_ms_p50": 1000.0 * median([t / slowdown_at(probe)
                                                      for t, probe in creates]),
        }

    _report(out, figures, host, setup, startup, _peak_rss_mb(include_children=False))
    out.detail.update(
        passes=passes,
        cells=n_cells,
        measured_s=round(measured_s, 3),
        setup_samples_s=[round(s, 4) for s in setup],
        step_samples=len(cells_per_call),
        step_p95_supported=percentile_supported(len(cells_per_call), 95),
        create_samples=len(creates),
    )
    return out


# ---------------------------------------------------------------------------
# service workload
# ---------------------------------------------------------------------------


def _usable_cpus() -> list[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _n_workers() -> int:
    """``nproc - 1`` service workers.  Work it out once, before
    :func:`_share_cpus_with_workers` narrows the usable CPUs."""
    return max(1, len(_usable_cpus()) - 1)


def _share_cpus_with_workers(n_workers: int) -> None:
    """Run this process, and the workers it spawns, on ``n_workers`` CPUs.

    On a virtual machine a reply sent to a process on an idle vCPU waits for
    the hypervisor to wake that vCPU, which takes up to milliseconds and
    varies with the load of other tenants: measured here, a free placement
    gave 21-24 ms per step and 36-42 steps/s where a shared CPU gave a steady
    18 ms and 54 steps/s.  Each closed-loop hand-off then stays a local
    context switch.  Workers inherit the affinity when they are spawned.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, _usable_cpus()[:n_workers])


def _stop_child_processes(timeout: float = 5.0) -> None:
    """Stop, and wait for, every process the service workload started.

    ``manager.stop()`` joins its workers, but a worker that outlives its
    join timeout, or one spawned by a ``manager.start()`` that failed half
    way, would be left behind.  So would the resource tracker that the
    spawn context starts next to the first worker: it exits only once this
    process has, as an orphan nobody waits for.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    children = mp.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def _run_service(coro):
    """Run a service coroutine; leave no process behind, on any path out."""
    try:
        return asyncio.run(coro)
    finally:
        _stop_child_processes()


def _session_toml(seed: int, index: int, scale: Scale) -> str:
    """Session ``index`` of a run: the paper scenario, alternating CDPF and
    CDPF-NE, a trajectory short enough that the target stays in the field."""
    from repro.config import ScenarioConfig, dumps_config
    from repro.config.schema import DeploymentConfig, TrackerConfig, TrajectoryConfig

    config = ScenarioConfig(
        seed=seed * 1_000_000 + index,
        deployment=DeploymentConfig(density_per_100m2=scale.session_density),
        trajectory=TrajectoryConfig(n_iterations=scale.session_iterations),
        tracker=TrackerConfig(name=BATCHED_FAMILIES[index % len(BATCHED_FAMILIES)]),
    )
    return dumps_config(config)


@dataclass
class _SessionLog:
    toml: str
    #: index of the host probe taken just before the session's round
    probe: int = -1
    create_s: float = 0.0
    step_s: list[float] = field(default_factory=list)
    result: dict | None = None
    frames: int = 0
    dropped: int = 0


async def _drain(queue) -> int:
    from repro.service.streams import QueueClosed

    n = 0
    try:
        while True:
            await queue.get()
            n += 1
    except QueueClosed:
        return n


async def _run_session(manager, toml: str) -> _SessionLog:
    """One closed-loop client session: create, step until done, destroy."""
    log = _SessionLog(toml=toml)
    t0 = time.perf_counter()
    described = await manager.create_session(toml)
    log.create_s = time.perf_counter() - t0
    sid = described["id"]
    queue = manager.subscribe(sid)
    consumer = asyncio.create_task(_drain(queue))
    try:
        while True:
            t0 = time.perf_counter()
            (payload,) = await manager.step_session(sid)
            log.step_s.append(time.perf_counter() - t0)
            if payload["done"]:
                log.result = payload.get("result")
                break
    finally:
        await manager.destroy_session(sid)
        log.frames = await consumer
        log.dropped = queue.dropped
    return log


async def _start_manager(n_workers: int):
    from repro.service import ServiceConfig, SessionManager

    manager = SessionManager(ServiceConfig(n_workers=n_workers))
    t0 = time.perf_counter()
    await manager.start()
    return manager, time.perf_counter() - t0


def _check_sessions(logs: list[_SessionLog], seed: int, scale: Scale, out: Outcome) -> None:
    """Every session ran to the end; a sample matches an in-process run."""
    from repro.config import loads_config, run_config, run_fingerprint

    n_steps = scale.session_iterations + 1
    for log in logs:
        if len(log.step_s) != n_steps or log.result is None:
            out.fail(1 + len(log.step_s),
                     f"session stopped after {len(log.step_s)} of {n_steps} steps")
    finished = [log for log in logs if log.result is not None]
    for log in _pick(seed, finished, scale.check_sessions):
        expected = run_fingerprint(run_config(loads_config(log.toml)))
        if log.result["fingerprint"] != expected:
            out.fail(1 + len(log.step_s),
                     "session fingerprint differs from an in-process run_config")


async def _measure_service_async(seed: int, seconds: float, scale: Scale,
                                 n_workers: int) -> Outcome:
    """Rounds of ``n_workers`` concurrent closed-loop sessions until
    ``seconds`` of rounds have passed.

    The host-speed probe runs between rounds, when no session is in flight:
    inside a round it would hold replies to the other sessions on the event
    loop, and it would share the CPUs with busy workers, so a slower program
    would read as a slower host and be divided out.  Only the rounds are timed.
    """
    out = Outcome()
    host = HostSpeed()
    startup = StartupSpeed()
    setup = []
    manager = None
    logs: list[_SessionLog] = []
    rounds: list[tuple[float, int]] = []  # (seconds, probe index)
    next_index = 0
    try:
        startup.probe()
        for _ in range(scale.setup_repeats):
            if manager is not None:
                await manager.stop()
            manager, started_s = await _start_manager(n_workers)
            setup.append(started_s)
            startup.probe()
        measured_s = 0.0
        while measured_s < seconds:
            host.probe()
            probe = len(host.samples) - 1
            indices = range(next_index, next_index + n_workers)
            next_index += n_workers
            tomls = [_session_toml(seed, index, scale) for index in indices]
            t0 = time.perf_counter()
            results = await asyncio.gather(
                *(_run_session(manager, toml) for toml in tomls), return_exceptions=True,
            )
            rounds.append((time.perf_counter() - t0, probe))
            measured_s += rounds[-1][0]
            for index, log in zip(indices, results):
                if isinstance(log, Exception):  # count, report, go on
                    out.fail(1, f"session {index}: {log!r}")
                elif isinstance(log, BaseException):
                    raise log
                else:
                    log.probe = probe
                    logs.append(log)
    finally:
        if manager is not None:
            await manager.stop()

    _check_sessions(logs, seed, scale, out)
    n_steps = sum(len(log.step_s) for log in logs)
    out.attempted = n_steps + next_index
    finished = sum(1 for log in logs if log.result is not None)

    def figures(slowdown_at) -> dict[str, float]:
        timed_s = sum(s / slowdown_at(probe) for s, probe in rounds)
        steps = [s / slowdown_at(log.probe) for log in logs for s in log.step_s]
        return {
            "cells_per_s": finished / timed_s,
            "steps_per_s": len(steps) / timed_s,
            "step_ms_p50": 1000.0 * percentile(steps, 50),
            "step_ms_p95": 1000.0 * percentile(steps, 95),
            "session_create_ms_p50": 1000.0 * median(
                [log.create_s / slowdown_at(log.probe) for log in logs]
            ),
        }

    _report(out, figures, host, setup, startup, _peak_rss_mb(include_children=True))
    out.detail.update(
        workers=n_workers,
        clients=n_workers,
        sessions=len(logs),
        steps=n_steps,
        measured_s=round(measured_s, 3),
        setup_samples_s=[round(s, 4) for s in setup],
        step_p95_supported=percentile_supported(n_steps, 95),
        frames=sum(log.frames for log in logs),
        frames_dropped=sum(log.dropped for log in logs),
    )
    return out


def _report(out: Outcome, figures, host: HostSpeed, setup: list[float],
            startup: StartupSpeed, peak_rss_mb: float) -> None:
    """Fill the end-to-end metrics (all but ``ok_frac``) at the reference
    host speed (see :class:`~perfbench.stats.HostSpeed`).

    ``figures(slowdown_at)`` computes the timings with each one divided by
    ``slowdown_at(probe index)``, the host slowdown around the probe taken
    just before it.  ``setup_s`` is the median set-up, each rescaled by
    ``startup``.  The raw figures, at slowdown 1, go to the detail.
    """
    scaled = {
        **figures(host.local_slowdown),
        "setup_s": median(startup.rescale(setup)),
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {**figures(lambda _: 1.0), "setup_s": median(setup)}
    out.metrics.update((name, (scaled[name], unit)) for name, unit, *_ in END_TO_END
                       if name in scaled)
    out.detail["host_slowdown"] = round(host.slowdown, 5)
    out.detail["host_probes"] = len(host.samples)
    out.detail["startup_probes_s"] = [round(s, 4) for s in startup.samples]
    out.detail["raw"] = {name: round(v, 6) for name, v in raw.items()}


def measure(workload: str, seed: int, seconds: float, scale: Scale, smoke: bool) -> Outcome:
    """The untraced run: every end-to-end metric of ``workload``."""
    if workload == "service-sessions":
        n_workers = _n_workers()
        _share_cpus_with_workers(n_workers)
        out = _run_service(_measure_service_async(seed, seconds, scale, n_workers))
    else:
        out = _measure_grid(workload, seed, seconds, scale, smoke)
    ok = (out.attempted - out.failed) / out.attempted if out.attempted else 0.0
    out.metrics["ok_frac"] = (ok, "frac")
    return out


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------


def _phase_and_comm(results, per_unit: dict[str, float]) -> dict[str, float]:
    """Phase milliseconds and exact comm counts per family.

    ``per_unit`` maps a family to the number of units (cells or steps) its
    phase times are divided by; comm counts are per run (cell or session).
    """
    values: dict[str, float] = {}
    by_family: dict[str, list] = {}
    for result in results:
        by_family.setdefault(result.tracker_name, []).append(result)
    for family, phases in FAMILY_PHASES.items():
        runs = by_family.get(family, [])
        units = per_unit.get(family, 0.0)
        for phase in phases:
            seconds = sum(r.phase_profile.seconds.get(phase, 0.0) for r in runs)
            values[f"phase.{family}.{phase}_ms"] = 1000.0 * seconds / units if units else 0.0
        n = len(runs)
        values[f"comm.{family}.bytes"] = sum(r.total_bytes for r in runs) / n if n else 0.0
        values[f"comm.{family}.messages"] = sum(r.total_messages for r in runs) / n if n else 0.0
    return values


def _layer_values(totals: LayerTotals, units: int) -> dict[str, float]:
    ms = {layer: 1000.0 * s / units for layer, s in totals.self_seconds.items()}
    return {
        "runner.step_context_ms": ms.get("runner", 0.0),
        "spatial.calls": totals.entries.get("spatial", 0) / units,
        "spatial.self_ms": ms.get("spatial", 0.0),
        "medium.flush_calls": totals.calls.get("TransmissionBatch.flush", 0) / units,
        "medium.self_ms": ms.get("medium", 0.0),
        "kernels.calls": totals.entries.get("kernels", 0) / units,
        "kernels.self_ms": ms.get("kernels", 0.0),
        "lockstep.self_ms": ms.get("lockstep", 0.0),
        "core.self_ms": ms.get("core", 0.0),
        "baselines.self_ms": ms.get("baselines", 0.0),
        "other.self_ms": ms.get(ROOT, 0.0),
        "trace.unit_wall_ms": 1000.0 * totals.root_seconds / units,
    }


def _reconciliation(totals: LayerTotals, units: int) -> dict:
    """Per-unit self time of every layer and the wall time they add up to."""
    layers = {k: round(1000.0 * v / units, 4) for k, v in sorted(totals.self_seconds.items())}
    return {
        "units": units,
        "self_ms": layers,
        "sum_self_ms": round(sum(1000.0 * v / units for v in totals.self_seconds.values()), 4),
        "wall_ms": round(1000.0 * totals.root_seconds / units, 4),
    }


def _empty_layer_metrics() -> dict[str, float]:
    return {name: 0.0 for name in MOVES}


def _trace_grid(workload: str, seed: int, scale: Scale) -> Outcome:
    from repro.experiments.engine import run_sweep

    out = Outcome()
    factories = setup_once(workload, scale)
    backend = _backend(workload)
    calls = _grid_calls(workload, scale, 0)

    untraced_s = 0.0
    cells = []
    for _, tasks in calls:
        t0 = time.perf_counter()
        done, _ = run_sweep(tasks, factories=factories, backend=backend,
                            base_seed=seed, n_iterations=scale.n_iterations)
        untraced_s += time.perf_counter() - t0
        cells.extend(done)

    tracer = Tracer()
    inst = install(tracer)
    traced_cells = []
    try:
        for _, tasks in calls:
            with tracer.root("call"):
                done, _ = run_sweep(tasks, factories=factories, backend=backend,
                                    base_seed=seed, n_iterations=scale.n_iterations)
            traced_cells.extend(done)
    finally:
        inst.uninstall()

    _check_cells(cells, {}, out)
    for a, b in zip(cells, traced_cells):
        if (a.key, a.total_bytes, a.total_messages, a.rmse) != (
            b.key, b.total_bytes, b.total_messages, b.rmse
        ):
            out.fail(1, f"cell {a.key}: traced run differs from untraced run")
    out.attempted = len(cells) + len(traced_cells)

    n = len(cells)
    totals = reduce_spans(tracer).get("call", LayerTotals())
    values = _empty_layer_metrics()
    values.update(_layer_values(totals, n))
    values["scenario.build_ms"] = 1000.0 * totals.self_seconds.get("scenario", 0.0) / n
    per_family = {}
    for cell in cells:
        per_family[cell.algorithm] = per_family.get(cell.algorithm, 0) + 1
    values.update(_phase_and_comm([c.tracking for c in cells], per_family))
    groups = tracer.counters.get("lockstep.groups", 0.0)
    values["lockstep.cells_per_group"] = (
        tracer.counters.get("lockstep.batched_cells", 0.0) / groups if groups else 0.0
    )
    values["lockstep.fallback_cells"] = tracer.counters.get("lockstep.fallback_cells", 0.0)
    values["trace.overhead_frac"] = totals.root_seconds / untraced_s - 1.0
    values["trace.missing_entry_points"] = float(len(inst.missing))
    out.metrics = {name: (values[name], MOVES[name][0]) for name in MOVES}
    out.tracer = tracer
    out.detail.update(
        cells=n,
        spans=len(tracer),
        untraced_s=round(untraced_s, 4),
        traced_s=round(totals.root_seconds, 4),
        missing_entry_points=inst.missing,
        reconciliation_per_cell=_reconciliation(totals, n),
    )
    return out


def _no_root(kind: str):
    return nullcontext()


def _drive_core(toml: str, every: int, tracer: Tracer | None = None):
    """Run one session in process the way a worker does under the manager:
    create plus birth checkpoint, then steps with a checkpoint every
    ``every`` steps.  With a tracer, creates and steps are its root spans.

    Returns (core, step seconds, step-plus-checkpoint seconds, checkpoint
    sizes in bytes).
    """
    from repro.service.session import SessionCore

    scope = tracer.root if tracer is not None else _no_root
    with scope("create"):
        core = SessionCore(toml)
        sizes = [len(core.checkpoint())]
    step_s, unit_s = [], []
    while not core.done:
        with scope("step"):
            t0 = time.perf_counter()
            payload = core.step()
            t1 = time.perf_counter()
            if not payload["done"] and len(step_s) % every == every - 1:
                sizes.append(len(core.checkpoint()))
            t2 = time.perf_counter()
        step_s.append(t1 - t0)
        unit_s.append(t2 - t0)
    return core, step_s, unit_s, sizes


async def _service_latency(seed: int, scale: Scale, n_workers: int):
    """Fixed sessions through one manager, one client: spawn time, step
    latencies and frame counts."""
    manager, spawn_s = await _start_manager(n_workers)
    try:
        logs = []
        for index in range(scale.trace_sessions):
            logs.append(await _run_session(manager, _session_toml(seed, index, scale)))
    finally:
        await manager.stop()
    return spawn_s, logs, manager.config.checkpoint_every


def _trace_service(seed: int, scale: Scale, n_workers: int) -> Outcome:
    out = Outcome()
    spawn_s, logs, every = _run_service(_service_latency(seed, scale, n_workers))
    _check_sessions(logs, seed, scale, out)
    tomls = [log.toml for log in logs]

    # the worker's own step time, in process and untraced
    untraced_steps: list[float] = []
    untraced_units: list[float] = []
    sizes: list[int] = []
    results = []
    for toml in tomls:
        core, step_s, unit_s, cp_sizes = _drive_core(toml, every)
        untraced_steps += step_s
        untraced_units += unit_s
        sizes += cp_sizes
        results.append(core.run.result())

    from repro.config import run_fingerprint

    tracer = Tracer()
    inst = install(tracer)
    try:
        traced = [_drive_core(toml, every, tracer)[0].run.result() for toml in tomls]
    finally:
        inst.uninstall()
    for plain, wrapped in zip(results, traced):
        if run_fingerprint(plain) != run_fingerprint(wrapped):
            out.fail(1, "traced session differs from the untraced one")

    latencies = [s for log in logs for s in log.step_s]
    out.attempted = len(latencies) + len(logs)
    reduced = reduce_spans(tracer)
    steps = reduced.get("step", LayerTotals())
    creates = reduced.get("create", LayerTotals())
    n_steps = max(1, steps.roots)
    n_creates = max(1, creates.roots)
    values = _empty_layer_metrics()
    values.update(_layer_values(steps, n_steps))
    values["scenario.build_ms"] = 1000.0 * creates.self_seconds.get("scenario", 0.0) / n_creates
    values["config.compile_ms"] = 1000.0 * creates.self_seconds.get("config", 0.0) / n_creates
    n_checkpoints = creates.calls.get("SessionCore.checkpoint", 0) + steps.calls.get(
        "SessionCore.checkpoint", 0
    )
    checkpoint_s = creates.self_seconds.get("checkpoint", 0.0) + steps.self_seconds.get(
        "checkpoint", 0.0
    )
    values["checkpoint.encode_ms"] = 1000.0 * checkpoint_s / n_checkpoints if n_checkpoints else 0.0
    values["checkpoint.kb"] = sum(sizes) / len(sizes) / 1024.0
    steps_per_family: dict[str, float] = {}
    for result in results:
        steps_per_family[result.tracker_name] = (
            steps_per_family.get(result.tracker_name, 0) + result.n_iterations + 1
        )
    values.update(_phase_and_comm(results, steps_per_family))
    worker_p50 = percentile(untraced_steps, 50)
    values["service.worker_spawn_s"] = spawn_s
    values["service.worker_step_ms_p50"] = 1000.0 * worker_p50
    values["service.overhead_ms_p50"] = 1000.0 * (percentile(latencies, 50) - worker_p50)
    frames = sum(log.frames + log.dropped for log in logs)
    values["service.frames_dropped_frac"] = (
        sum(log.dropped for log in logs) / frames if frames else 0.0
    )
    values["trace.overhead_frac"] = steps.root_seconds / sum(untraced_units) - 1.0
    values["trace.missing_entry_points"] = float(len(inst.missing))
    out.metrics = {name: (values[name], MOVES[name][0]) for name in MOVES}
    out.tracer = tracer
    out.detail.update(
        sessions=len(logs),
        spans=len(tracer),
        missing_entry_points=inst.missing,
        reconciliation_per_step=_reconciliation(steps, n_steps),
        reconciliation_per_create=_reconciliation(creates, n_creates),
    )
    return out


def trace(workload: str, seed: int, scale: Scale) -> Outcome:
    """The traced run: every per-layer metric of ``workload``.

    The traced work is a fixed set of cells or sessions (not a time budget),
    so exact counts repeat for the same seed.  The same work runs untraced
    first; the difference is the reported tracing overhead.
    """
    if workload == "service-sessions":
        n_workers = _n_workers()
        _share_cpus_with_workers(n_workers)
        return _trace_service(seed, scale, n_workers)
    return _trace_grid(workload, seed, scale)
