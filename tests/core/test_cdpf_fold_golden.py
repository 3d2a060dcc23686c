"""Every CDPF / CDPF-NE phase path against its recorded golden output.

``cdpf_fold_golden.json`` was recorded by :mod:`core.cdpf_fold_protocol`
against the tracker as it stood before the lock-step fast paths moved into
it.  These tests replay the identical protocol and assert bit-identical
estimates, ledgers and filter-health series: the fold's
behavior-preservation claim, made falsifiable.  Since ``backend="batched"``
now steps the same tracker phases, this fixture is also what pins the
batched backend (an equality between two backends running the same code
would be vacuous).
"""

from __future__ import annotations

import json

import pytest

from .cdpf_fold_protocol import EDGE_CELLS, GOLDEN_PATH, grid_keys, run_edge_cell, run_grid_cell


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize(
    "family,density", grid_keys(), ids=[f"{f}@{d:g}" for f, d in grid_keys()]
)
def test_paper_grid_cell(family: str, density: float):
    assert run_grid_cell(family, density) == golden()["grid"][f"{family}@{density:g}"]


@pytest.mark.parametrize("name", EDGE_CELLS)
def test_edge_path_cell(name: str):
    assert run_edge_cell(name) == golden()["edge"][name]


def test_batched_backend_matches_the_fixture():
    """The lock-step scheduler steps each cell's own tracker, so a batched
    sweep reproduces the serially recorded grid cell by cell."""
    from repro.experiments.engine import SweepTask, run_sweep
    from repro.factory import tracker_factory

    from .cdpf_fold_protocol import BASE_SEED, GRID_DENSITIES, GRID_FAMILIES, N_ITERATIONS, SWEEP_SEED

    tasks = [SweepTask(d, f, SWEEP_SEED) for f in GRID_FAMILIES for d in GRID_DENSITIES[:3]]
    cells, _ = run_sweep(
        tasks,
        factories={f: tracker_factory(f) for f in GRID_FAMILIES},
        base_seed=BASE_SEED,
        n_iterations=N_ITERATIONS,
        backend="batched",
    )
    grid = golden()["grid"]
    for cell in cells:
        want = grid[f"{cell.algorithm}@{cell.density:g}"]
        got = {
            str(k): [float(v[0]), float(v[1])]
            for k, v in sorted(cell.tracking.estimates.items())
        }
        assert got == want["estimates"], cell.key
        assert int(cell.total_bytes) == want["total_bytes"], cell.key
        assert int(cell.total_messages) == want["total_messages"], cell.key
        assert [int(b) for b in cell.tracking.bytes_per_iteration] == want[
            "bytes_per_iteration"
        ], cell.key
