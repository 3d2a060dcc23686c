"""Paper-grid cells bench: in-process ms per cell, serial and batched.

Runs the paper-scale CDPF-family grid (8 densities x 2 seeds x {CDPF,
CDPF-NE} = 32 cells, 10 iterations) through every backend — serial,
process pool and lock-step batched — verifies the sweeps are bit-identical,
and emits ``benchmarks/results/BENCH_cells.json`` with the per-cell
milliseconds of the two in-process backends (best of ``REPEATS`` passes)
and the host facts they were measured on.

Gate (full mode only; smoke records timings without judging them — CI
containers are too noisy at tiny sizes): each in-process backend's ms per
cell must stay within ``REGRESSION_FACTOR`` of the committed baseline
``benchmarks/BENCH_cells_baseline.json``.  Both sides are in-process
per-cell times on the same grid, so the ratio is like for like; the pool
run is timed for information only (it pays process spawn).  To re-record
the baseline, run this bench in full mode and copy
``benchmarks/results/BENCH_cells.json`` over it.

Scale knobs (all environment variables):

    REPRO_BENCH_SMOKE            1 = tiny grid for CI smoke runs
    REPRO_BENCH_WORKERS          pool size (default: min(4, cpu_count))
    REPRO_BENCH_CELL_DENSITIES   full-mode densities
                                 (default "5,10,15,20,25,30,35,40")
    REPRO_BENCH_SEEDS            full-mode seeds per cell (default 2)
    REPRO_BENCH_ITERATIONS       full-mode filter iterations (default 10)
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.experiments.sweep import density_sweep
from repro.factory import tracker_factory

RESULTS_DIR = Path(__file__).parent / "results"
BASELINE = Path(__file__).parent / "BENCH_cells_baseline.json"

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: Per-cell ms may grow to baseline x 1.3 before the gate trips.
REGRESSION_FACTOR = 1.3
#: In-process passes per backend; the best pass is the figure.
REPEATS = 3

#: The lock-stepped families: the batched backend's whole grid.
FAMILIES = ("CDPF", "CDPF-NE")
IN_PROCESS = ("serial", "batched")


def bench_workers() -> int:
    # the process backend refuses max_workers < 2, so floor the default there
    default = max(2, min(4, os.cpu_count() or 1))
    return int(os.environ.get("REPRO_BENCH_WORKERS", default))


def host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def cells_grid() -> dict:
    factories = {name: tracker_factory(name) for name in FAMILIES}
    if SMOKE:
        return dict(
            densities=(5.0, 10.0),
            n_seeds=1,
            n_iterations=3,
            factories=factories,
            scenario_kwargs={"width": 80.0, "height": 60.0},
            trajectory_kwargs={"start": (5.0, 30.0)},
        )
    densities = tuple(
        float(x)
        for x in os.environ.get(
            "REPRO_BENCH_CELL_DENSITIES", "5,10,15,20,25,30,35,40"
        ).split(",")
    )
    return dict(
        densities=densities,
        n_seeds=int(os.environ.get("REPRO_BENCH_SEEDS", 2)),
        n_iterations=int(os.environ.get("REPRO_BENCH_ITERATIONS", 10)),
        factories=factories,
    )


def assert_same_points(a, b, what: str) -> None:
    assert set(a.points) == set(b.points), what
    for key, pt in a.points.items():
        other = b.points[key]
        assert other.rmse_runs == pt.rmse_runs, (what, key)
        assert other.bytes_runs == pt.bytes_runs, (what, key)
        assert other.messages_runs == pt.messages_runs, (what, key)
        assert other.coverage_runs == pt.coverage_runs, (what, key)


def test_bench_cells(report_sink):
    grid = cells_grid()
    workers = bench_workers()
    n_tasks = len(grid["densities"]) * grid["n_seeds"] * len(FAMILIES)

    sweeps = {}
    ms_per_cell = {}
    for backend in IN_PROCESS:
        passes = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            sweeps[backend] = density_sweep(backend=backend, **grid)
            passes.append(1000.0 * (time.perf_counter() - t0) / n_tasks)
        ms_per_cell[backend] = min(passes)

    t0 = time.perf_counter()
    pool = density_sweep(backend="process", max_workers=workers, **grid)
    pool_ms = 1000.0 * (time.perf_counter() - t0) / n_tasks

    # the engine's core guarantee: execution strategy never changes results
    assert_same_points(sweeps["serial"], pool, "pool")
    assert_same_points(sweeps["serial"], sweeps["batched"], "batched")

    payload = {
        "smoke": SMOKE,
        "host": host_facts(),
        "workers": workers,
        "repeats": REPEATS,
        "grid": {
            "densities": list(grid["densities"]),
            "n_seeds": grid["n_seeds"],
            "n_iterations": grid["n_iterations"],
            "families": list(FAMILIES),
            "n_tasks": n_tasks,
        },
        "ms_per_cell": {**ms_per_cell, "pool": pool_ms},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_cells.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")

    report_sink(
        f"BENCH_cells ({'smoke' if SMOKE else 'full'} mode): {n_tasks} cells | "
        f"serial {ms_per_cell['serial']:.1f} ms/cell | "
        f"batched {ms_per_cell['batched']:.1f} ms/cell | "
        f"pool({workers}) {pool_ms:.1f} ms/cell incl. spawn"
    )
    assert out.exists()

    if SMOKE or not BASELINE.exists():
        return  # timings recorded, but too noisy to judge at smoke sizes

    baseline = json.loads(BASELINE.read_text())
    for backend in IN_PROCESS:
        ceiling = baseline["ms_per_cell"][backend] * REGRESSION_FACTOR
        assert ms_per_cell[backend] <= ceiling, (
            f"{backend} cells regressed: {ms_per_cell[backend]:.1f} ms/cell vs "
            f"baseline {baseline['ms_per_cell'][backend]:.1f} (ceiling {ceiling:.1f}); "
            f"host {host_facts()} vs baseline host {baseline.get('host')}"
        )
