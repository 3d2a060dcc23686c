"""The lock-step batched backend: routing, fallback, resume, and the
engine-level invariant that the execution strategy never changes results.

Both backends step the same tracker phases; what these tests pin is the
scheduler around them (shared worlds, estimate filing, result reassembly
by task index).  The phase bodies themselves are pinned by
``tests/core/cdpf_fold_golden.json``."""

import numpy as np
import pytest

from repro.experiments.engine import expand_tasks, run_sweep
from repro.experiments.lockstep import partition_batchable
from repro.experiments.sweep import default_tracker_factories, density_sweep
from repro.factory import tracker_factory

SMALL = dict(
    scenario_kwargs={"width": 80.0, "height": 60.0},
    trajectory_kwargs={"start": (5.0, 30.0)},
)


def collect(backend, factories=None, **kwargs):
    """(cell key -> TrackingResult, SweepResult) of a small sweep."""
    rows = {}

    def on_result(density, algorithm, seed, tracking):
        rows[(density, algorithm, seed)] = tracking

    sweep = density_sweep(
        densities=(5, 10),
        n_seeds=2,
        n_iterations=3,
        factories=factories,
        backend=backend,
        on_result=on_result,
        **SMALL,
        **kwargs,
    )
    return rows, sweep


def assert_tracking_identical(a, b, key):
    assert set(a.estimates) == set(b.estimates), key
    for k in a.estimates:
        ea, eb = a.estimates[k], b.estimates[k]
        assert (ea is None) == (eb is None), (key, k)
        if ea is not None:
            assert np.array_equal(np.asarray(ea), np.asarray(eb)), (key, k)
    assert a.total_bytes == b.total_bytes, key
    assert a.total_messages == b.total_messages, key
    assert np.array_equal(a.bytes_per_iteration, b.bytes_per_iteration), key
    assert np.array_equal(a.messages_per_iteration, b.messages_per_iteration), key
    assert a.bytes_by_category == b.bytes_by_category, key
    assert a.detectors_per_iteration == b.detectors_per_iteration, key
    assert a.rmse == b.rmse, key


class TestBitIdentity:
    def test_all_families_match_serial(self):
        """Every tracker family — the lock-stepped CDPF/CDPF-NE and the
        per-cell CPF/SDPF — produces bit-identical per-cell results."""
        serial, ss = collect("serial")
        batched, sb = collect("batched")
        assert set(serial) == set(batched)
        algorithms = {alg for _, alg, _ in serial}
        assert {"CPF", "SDPF", "CDPF", "CDPF-NE"} <= algorithms
        for key in serial:
            assert_tracking_identical(serial[key], batched[key], key)
        assert set(ss.points) == set(sb.points)
        for key in ss.points:
            assert ss.points[key] == sb.points[key]

    def test_batched_is_deterministic(self):
        a, _ = collect("batched")
        b, _ = collect("batched")
        for key in a:
            assert_tracking_identical(a[key], b[key], key)


class TestPartition:
    def _pending(self, factories):
        tasks = expand_tasks((5.0,), sorted(factories), 1)
        specs = []
        for task in tasks:
            specs.append(
                type(
                    "Spec",
                    (),
                    {"task": task, "factory": factories[task.algorithm]},
                )()
            )
        return list(enumerate(specs))

    def test_named_cdpf_families_are_batchable(self):
        pending = self._pending(default_tracker_factories())
        batchable, remaining = partition_batchable(pending)
        batched_algs = {spec.task.algorithm for _, spec in batchable}
        serial_algs = {spec.task.algorithm for _, spec in remaining}
        assert batched_algs == {"CDPF", "CDPF-NE"}
        assert serial_algs == {"CPF", "SDPF"}

    def test_custom_factory_is_not_batchable(self):
        from repro.core.cdpf import CDPFTracker

        def custom(scenario, rng):  # structurally a CDPF, but opaque
            return CDPFTracker(scenario, rng=rng)

        pending = self._pending({"CDPF": custom})
        batchable, remaining = partition_batchable(pending)
        assert batchable == []
        assert len(remaining) == 1

    def test_index_order_preserved(self):
        pending = self._pending(default_tracker_factories())
        batchable, remaining = partition_batchable(pending)
        indices = sorted(i for i, _ in batchable) + sorted(i for i, _ in remaining)
        assert sorted(indices) == [i for i, _ in pending]


class TestFallback:
    def test_custom_factory_through_batched_backend_matches_serial(self):
        """A factory the partition cannot see into takes the per-cell path
        inside the batched backend — identical results."""
        from repro.core.cdpf import CDPFTracker

        factories = {
            "custom-cdpf": lambda scenario, rng: CDPFTracker(scenario, rng=rng)
        }
        serial, _ = collect("serial", factories=factories)
        batched, _ = collect("batched", factories=factories)
        for key in serial:
            assert_tracking_identical(serial[key], batched[key], key)


class TestResume:
    def test_batched_backend_resumes_from_store(self, tmp_path):
        store = tmp_path / "cells.jsonl"
        first, _ = collect("batched", store=store)
        again, sweep = collect("batched", store=store)
        assert sweep.run_summary.n_executed == 0
        assert sweep.run_summary.n_resumed == sweep.run_summary.n_tasks
        # resumed cells surface no TrackingResult, but keep their metrics
        assert all(t is None for t in again.values())

    def test_store_written_by_serial_resumes_batched(self, tmp_path):
        store = tmp_path / "cells.jsonl"
        _, s1 = collect("serial", store=store)
        _, s2 = collect("batched", store=store)
        assert s2.run_summary.n_executed == 0
        for key in s1.points:
            p1, p2 = s1.points[key], s2.points[key]
            assert p1.rmse_runs == p2.rmse_runs
            assert p1.bytes_runs == p2.bytes_runs


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            collect("warp-drive")

    def test_backend_none_defaults_by_workers(self):
        rows, sweep = collect(None)
        assert sweep.run_summary.n_executed == len(rows)
