"""The Monte-Carlo sweep engine: seeding, determinism, parallelism, resume."""

import numpy as np
import pytest

from repro.experiments.engine import (
    RECORD_SCHEMA,
    CellResult,
    JsonlStore,
    RunSummary,
    StoreLoadError,
    SweepTask,
    expand_tasks,
    run_sweep,
    sweep_fingerprint,
    task_seed_sequences,
)
from repro.experiments.sweep import default_tracker_factories, density_sweep

# a compact world every tracker crosses quickly (mirrors the sweep tests)
SMALL = dict(
    scenario_kwargs={"width": 80.0, "height": 60.0},
    trajectory_kwargs={"start": (5.0, 30.0)},
)


def small_sweep(**kwargs):
    return density_sweep(densities=(5, 10), n_seeds=2, n_iterations=3, **SMALL, **kwargs)


def cells_of(sweep):
    """Every per-run value of every point — the exact-equality fingerprint."""
    return {
        key: (pt.rmse_runs, pt.bytes_runs, pt.messages_runs, pt.coverage_runs)
        for key, pt in sweep.points.items()
    }


class TestSeeding:
    def test_all_streams_distinct_across_paper_grid(self):
        """Every stream of the full 8x10 paper grid is unique — the old
        additive scheme collided inside this very grid."""
        seqs = []
        for d in (5, 10, 15, 20, 25, 30, 35, 40):
            for seed in range(10):
                seqs.extend(task_seed_sequences(2011, d, seed).values())
        keys = {(s.entropy, s.spawn_key) for s in seqs}
        assert len(keys) == len(seqs)
        draws = {
            tuple(int(x) for x in np.random.default_rng(s).integers(0, 2**63, size=4))
            for s in seqs
        }
        assert len(draws) == len(seqs)

    def test_additive_scheme_collision_is_real(self):
        """The class of bug the engine fixes by construction: the old tracker
        seed (base + seed) equals the old world seed (base + 1000*seed + d)
        at e.g. seed=5 / seed=0, d=5."""
        base = 2011
        tracker_seeds = {base + seed for seed in range(10)}
        world_seeds = {base + 1000 * seed + d for seed in range(10) for d in (5, 10, 15, 20, 25, 30, 35, 40)}
        assert tracker_seeds & world_seeds  # the collision existed ...
        # ... and the SeedSequence streams for those same cells do not collide
        a = np.random.default_rng(task_seed_sequences(base, 5, 5)["tracker"])
        b = np.random.default_rng(task_seed_sequences(base, 5, 0)["world"])
        assert a.integers(0, 2**63) != b.integers(0, 2**63)

    def test_streams_shared_across_algorithms(self):
        """Streams key on (density, seed) only: paired comparisons."""
        s1 = task_seed_sequences(2011, 20.0, 3)
        s2 = task_seed_sequences(2011, 20.0, 3)
        for name in ("world", "tracker", "sensing"):
            assert s1[name].spawn_key == s2[name].spawn_key

    def test_base_seed_changes_all_streams(self):
        s1 = task_seed_sequences(2011, 20.0, 3)
        s2 = task_seed_sequences(2012, 20.0, 3)
        for name in ("world", "tracker", "sensing"):
            a = np.random.default_rng(s1[name]).integers(0, 2**63)
            b = np.random.default_rng(s2[name]).integers(0, 2**63)
            assert a != b


class TestExpandTasks:
    def test_order_density_seed_algorithm(self):
        tasks = expand_tasks([5, 10], ["A", "B"], 2)
        assert tasks == [
            SweepTask(5.0, "A", 0),
            SweepTask(5.0, "B", 0),
            SweepTask(5.0, "A", 1),
            SweepTask(5.0, "B", 1),
            SweepTask(10.0, "A", 0),
            SweepTask(10.0, "B", 0),
            SweepTask(10.0, "A", 1),
            SweepTask(10.0, "B", 1),
        ]


class TestDeterminism:
    def test_parallel_bit_identical_to_serial(self):
        serial = small_sweep(max_workers=1)
        parallel = small_sweep(max_workers=2)
        assert cells_of(serial) == cells_of(parallel)
        assert serial.run_summary.n_executed == parallel.run_summary.n_executed == 16

    def test_repeated_serial_runs_identical(self):
        assert cells_of(small_sweep()) == cells_of(small_sweep())


class TestResume:
    @pytest.fixture
    def cdpf_kwargs(self):
        return dict(densities=(5, 10), n_seeds=3, n_iterations=3, **SMALL)

    def test_interrupted_sweep_resumes_without_recompute(self, tmp_path, cdpf_kwargs):
        store = tmp_path / "sweep.jsonl"
        base = default_tracker_factories()
        calls = {"n": 0}

        def failing_cdpf(s, rng):
            if calls["n"] >= 4:
                raise RuntimeError("simulated interrupt")
            calls["n"] += 1
            return base["CDPF"](s, rng)

        with pytest.raises(RuntimeError, match="interrupt"):
            density_sweep(factories={"CDPF": failing_cdpf}, store=store, **cdpf_kwargs)
        assert len(store.read_text().strip().splitlines()) == 4

        resumed = density_sweep(factories={"CDPF": base["CDPF"]}, store=store, **cdpf_kwargs)
        assert resumed.run_summary.n_resumed == 4
        assert resumed.run_summary.n_executed == 2

        uninterrupted = density_sweep(factories={"CDPF": base["CDPF"]}, **cdpf_kwargs)
        assert cells_of(resumed) == cells_of(uninterrupted)

    def test_completed_store_skips_everything(self, tmp_path, cdpf_kwargs):
        store = tmp_path / "sweep.jsonl"
        factories = {"CDPF": default_tracker_factories()["CDPF"]}
        first = density_sweep(factories=factories, store=store, **cdpf_kwargs)
        second = density_sweep(factories=factories, store=store, **cdpf_kwargs)
        assert second.run_summary.n_executed == 0
        assert second.run_summary.n_resumed == 6
        assert cells_of(first) == cells_of(second)

    def test_resumed_tracking_results_are_none(self, tmp_path, cdpf_kwargs):
        store = tmp_path / "sweep.jsonl"
        factories = {"CDPF": default_tracker_factories()["CDPF"]}
        density_sweep(factories=factories, store=store, **cdpf_kwargs)
        seen = []
        density_sweep(
            factories=factories,
            store=store,
            on_result=lambda d, name, seed, tr: seen.append(tr),
            **cdpf_kwargs,
        )
        assert len(seen) == 6
        assert all(tr is None for tr in seen)


class TestJsonlStore:
    def _record(self, fingerprint="fp", seed=0):
        return CellResult(
            density=5.0,
            algorithm="CDPF",
            seed=seed,
            rmse=1.25,
            total_bytes=1000,
            total_messages=20,
            coverage=0.75,
            elapsed_s=0.1,
        ).to_record(fingerprint)

    def test_roundtrip_is_exact(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        rec = self._record()
        rec["rmse"] = 0.1 + 0.2  # a float that doesn't have a short repr
        store.append(rec)
        cell = store.load("fp")[(5.0, "CDPF", 0)]
        assert cell.rmse == 0.1 + 0.2  # bit-exact through JSON
        assert cell.resumed

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = JsonlStore(path)
        store.append(self._record(seed=0))
        with path.open("a") as h:
            h.write('{"fingerprint": "fp", "density": 5.0, "alg')  # interrupt mid-write
        assert set(store.load("fp")) == {(5.0, "CDPF", 0)}

    def test_all_foreign_fingerprints_raise(self, tmp_path):
        """A store with only foreign records is another sweep's file —
        resuming "from empty" into it would interleave two configurations."""
        store = JsonlStore(tmp_path / "s.jsonl")
        store.append(self._record(fingerprint="other"))
        with pytest.raises(StoreLoadError, match="different sweep fingerprint"):
            store.load("fp")

    def test_mixed_fingerprints_warn_but_load(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        store.append(self._record(fingerprint="other"))
        store.append(self._record(seed=1))
        with pytest.warns(UserWarning, match="foreign"):
            cells = store.load("fp")
        assert set(cells) == {(5.0, "CDPF", 1)}

    def test_midfile_corruption_raises(self, tmp_path):
        """Undecodable JSON that is NOT the final line is corruption, not an
        interrupted append — the old silent skip recomputed those cells
        forever."""
        path = tmp_path / "s.jsonl"
        store = JsonlStore(path)
        with path.open("a") as h:
            h.write("[1, 2, 3\n")  # broken line in the middle
        store.append(self._record(seed=1))
        with pytest.raises(StoreLoadError, match="corruption"):
            store.load("fp")

    def test_matching_but_unreadable_record_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = JsonlStore(path)
        with path.open("a") as h:
            # right sweep, current schema, missing fields
            h.write('{"fingerprint": "fp", "schema": %d}\n' % RECORD_SCHEMA)
        store.append(self._record(seed=1))
        with pytest.raises(StoreLoadError, match="cannot be read back"):
            store.load("fp")

    def test_old_schema_record_treated_as_absent(self, tmp_path):
        """A fingerprint-matching record written by an older payload codec is
        not an error: the cell simply re-runs.  Mixed-vintage stores are a
        normal upgrade artifact."""
        path = tmp_path / "s.jsonl"
        store = JsonlStore(path)
        old = self._record(seed=0)
        del old["schema"]  # schema-1 records predate the schema key
        store.append(old)
        store.append(self._record(seed=1))
        cells = store.load("fp")
        assert set(cells) == {(5.0, "CDPF", 1)}

    def test_newer_schema_record_raises(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        rec = self._record(seed=0)
        rec["schema"] = RECORD_SCHEMA + 1
        store.append(rec)
        with pytest.raises(StoreLoadError, match="newer"):
            store.load("fp")

    def test_checkpoint_records_are_not_results(self, tmp_path):
        store = JsonlStore(tmp_path / "s.jsonl")
        store.append(
            {
                "fingerprint": "fp",
                "schema": RECORD_SCHEMA,
                "kind": "checkpoint",
                "density": 5.0,
                "algorithm": "CDPF",
                "seed": 0,
                "checkpoint": {"version": 1, "iteration": 3, "payload": {}},
            }
        )
        store.append(self._record(seed=1))
        assert set(store.load("fp")) == {(5.0, "CDPF", 1)}

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = JsonlStore(path)
        with path.open("a") as h:
            h.write("[1, 2, 3]\n")
        store.append(self._record(seed=1))
        with pytest.raises(StoreLoadError, match="JSON object"):
            store.load("fp")

    def test_append_creates_parent_dirs(self, tmp_path):
        store = JsonlStore(tmp_path / "nested" / "dir" / "s.jsonl")
        store.append(self._record())
        assert len(store.load("fp")) == 1

    def test_missing_file_loads_empty(self, tmp_path):
        assert JsonlStore(tmp_path / "absent.jsonl").load("fp") == {}


class TestFingerprint:
    def test_sensitive_to_every_config_knob(self):
        base = sweep_fingerprint(2011, 10, {}, {})
        assert sweep_fingerprint(2012, 10, {}, {}) != base
        assert sweep_fingerprint(2011, 11, {}, {}) != base
        assert sweep_fingerprint(2011, 10, {"width": 80.0}, {}) != base
        assert sweep_fingerprint(2011, 10, {}, {"speed": 4.0}) != base

    def test_stable_across_key_order(self):
        a = sweep_fingerprint(2011, 10, {"a": 1, "b": 2}, {})
        b = sweep_fingerprint(2011, 10, {"b": 2, "a": 1}, {})
        assert a == b

    def test_numpy_values_fingerprint_like_python(self):
        """np.float64(80) and 80.0 must resume each other's stores."""
        a = sweep_fingerprint(2011, 10, {"width": np.float64(80)}, {})
        b = sweep_fingerprint(2011, 10, {"width": 80.0}, {})
        assert a == b
        c = sweep_fingerprint(2011, 10, {}, {"start": np.array([5.0, 30.0])})
        d = sweep_fingerprint(2011, 10, {}, {"start": (5.0, 30.0)})
        assert c == d

    def test_unserializable_value_rejected(self):
        """The old default=repr fallback stamped object ids into the
        fingerprint, changing it every process."""
        with pytest.raises(TypeError, match="fingerprint"):
            sweep_fingerprint(2011, 10, {"rng": object()}, {})

    def test_sub_microdensity_streams_distinct(self):
        """Densities closer than the old 1e-6 quantization still get
        distinct spawn keys (the float64-bit-pattern fix)."""
        d1, d2 = 5.0, 5.0 + 1e-7
        s1 = task_seed_sequences(2011, d1, 0)["world"]
        s2 = task_seed_sequences(2011, d2, 0)["world"]
        assert s1.spawn_key != s2.spawn_key
        a = np.random.default_rng(s1).integers(0, 2**63)
        b = np.random.default_rng(s2).integers(0, 2**63)
        assert a != b


class TestValidation:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            run_sweep([], factories={}, max_workers=0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="no factory"):
            run_sweep([SweepTask(5.0, "NOPE", 0)], factories={})

    def test_rejects_unpicklable_factories_in_parallel(self):
        tracker = object()
        factories = {"X": lambda s, rng: tracker}  # closure: not picklable
        tasks = expand_tasks([5.0], ["X"], 2)
        with pytest.raises(ValueError, match="picklable"):
            run_sweep(tasks, factories=factories, max_workers=2, **SMALL)


class TestRunSummary:
    def test_summary_of_small_sweep(self):
        sweep = small_sweep()
        s = sweep.run_summary
        assert s.n_tasks == 16
        assert s.n_executed == 16
        assert s.n_resumed == 0
        assert s.max_workers == 1
        assert s.wall_clock_s > 0
        assert s.task_time_s > 0
        assert s.tasks_per_sec > 0
        assert 0 < s.parallel_efficiency <= 1.5  # timer noise can nudge past 1
        rows = s.as_rows()
        assert len(rows) == 7
        assert ("mid-cell checkpoint resumes", "0") in rows

    def test_efficiency_uses_effective_workers(self):
        """A pool of 8 that only ever ran 2 tasks is judged against 2 slots,
        not 8 — the old denominator reported misleading near-zero values."""
        s = RunSummary(
            n_tasks=10, n_executed=2, n_resumed=8, max_workers=8,
            wall_clock_s=1.0, task_time_s=2.0,
        )
        assert s.effective_workers == 2
        assert s.parallel_efficiency == pytest.approx(1.0)

    def test_fully_resumed_efficiency_is_nan(self):
        import math

        s = RunSummary(
            n_tasks=4, n_executed=0, n_resumed=4, max_workers=2,
            wall_clock_s=0.01, task_time_s=0.0,
        )
        assert math.isnan(s.parallel_efficiency)
        rows = dict(s.as_rows())
        assert rows["parallel efficiency"] == "n/a"
