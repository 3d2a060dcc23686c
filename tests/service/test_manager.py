"""SessionManager: lifecycle, sharding, budgets, shedding, and failover.

The worker pool uses real ``spawn`` processes, so these tests keep worker
counts small and share one manager per test via ``asyncio.run``.
"""

import asyncio
import json
import logging
import os
import signal

import pytest

from repro.config import dumps_config, run_config, run_fingerprint
from repro.service import (
    CapacityError,
    ServiceConfig,
    SessionManager,
    SessionNotFound,
    SessionStateError,
    StepBudgetExceeded,
)

from .conftest import small_config


def run(coro):
    return asyncio.run(coro)


async def with_manager(config, body):
    manager = SessionManager(config)
    await manager.start()
    try:
        return await body(manager)
    finally:
        await manager.stop()


class TestInterleavedIsolation:
    def test_two_sessions_one_worker_bit_identical_to_serial(self):
        """The PR's core acceptance drill: identical configs, different
        seeds, stepped interleaved on ONE worker — each session's final
        fingerprint equals its serial ``run_tracking`` fingerprint."""

        async def body(manager):
            await manager.create_session(
                dumps_config(small_config(seed=5)), session_id="a"
            )
            await manager.create_session(
                dumps_config(small_config(seed=9)), session_id="b"
            )
            assert (
                manager.sessions["a"].worker is manager.sessions["b"].worker
            )
            while not (manager.sessions["a"].done and manager.sessions["b"].done):
                if not manager.sessions["a"].done:
                    await manager.step_session("a")
                if not manager.sessions["b"].done:
                    await manager.step_session("b")
            return (
                await manager.result_session("a"),
                await manager.result_session("b"),
            )

        result_a, result_b = run(
            with_manager(ServiceConfig(n_workers=1), body)
        )
        assert result_a["fingerprint"] == run_fingerprint(
            run_config(small_config(seed=5))
        )
        assert result_b["fingerprint"] == run_fingerprint(
            run_config(small_config(seed=9))
        )


class TestLifecycle:
    def test_create_step_result_destroy(self, config_toml):
        async def body(manager):
            created = await manager.create_session(config_toml, session_id="s")
            assert created["state"] == "running"
            assert created["n_iterations"] == 4
            outcomes = await manager.step_session("s", n=99)
            assert len(outcomes) == 5  # iterations 0..4, then done
            assert outcomes[-1]["done"]
            result = await manager.result_session("s")
            assert result["fingerprint"]
            with pytest.raises(SessionStateError, match="finished"):
                await manager.step_session("s")
            destroyed = await manager.destroy_session("s")
            assert destroyed == {"destroyed": "s"}
            with pytest.raises(SessionNotFound):
                manager.describe_session("s")

        run(with_manager(ServiceConfig(n_workers=1), body))

    def test_result_before_done_refused(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            with pytest.raises(SessionStateError, match="no result yet"):
                await manager.result_session("s")

        run(with_manager(ServiceConfig(n_workers=1), body))

    def test_autorun_runs_to_completion(self, config_toml):
        async def body(manager):
            await manager.create_session(
                config_toml, session_id="s", autorun=True
            )
            for _ in range(200):
                if manager.sessions["s"].state == "finished":
                    break
                await asyncio.sleep(0.05)
            assert manager.sessions["s"].state == "finished"
            return await manager.result_session("s")

        result = run(with_manager(ServiceConfig(n_workers=1), body))
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    def test_pause_stops_autorun_resume_restarts(self, config_toml):
        async def body(manager):
            await manager.create_session(
                config_toml, session_id="s", autorun=True
            )
            await manager.pause_session("s")
            assert manager.sessions["s"].state == "paused"
            frozen = manager.sessions["s"].steps_done
            await asyncio.sleep(0.2)
            assert manager.sessions["s"].steps_done == frozen
            await manager.resume_session("s")
            for _ in range(200):
                if manager.sessions["s"].state == "finished":
                    break
                await asyncio.sleep(0.05)
            assert manager.sessions["s"].state == "finished"

        run(with_manager(ServiceConfig(n_workers=1), body))


class TestRobustness:
    def test_step_budget_pauses_the_session(self, config_toml):
        async def body(manager):
            await manager.create_session(
                config_toml, session_id="s", step_budget=2
            )
            await manager.step_session("s", n=2)
            with pytest.raises(StepBudgetExceeded):
                await manager.step_session("s")
            assert manager.sessions["s"].state == "paused"
            # raising the budget via resume unblocks it
            await manager.resume_session("s", step_budget=10)
            await manager.step_session("s", n=10)
            return await manager.result_session("s")

        result = run(with_manager(ServiceConfig(n_workers=1), body))
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    def test_load_shedding_past_high_water(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="a")
            await manager.create_session(config_toml, session_id="b")
            with pytest.raises(CapacityError, match="high-water"):
                await manager.create_session(config_toml, session_id="c")
            assert manager.sheds_total == 1
            # existing sessions keep working through the shed
            await manager.step_session("a")

        run(
            with_manager(
                ServiceConfig(n_workers=1, max_sessions=8, high_water=2), body
            )
        )

    def test_idle_reaper_destroys_untouched_sessions(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            for _ in range(100):
                if "s" not in manager.sessions:
                    break
                await asyncio.sleep(0.05)
            assert "s" not in manager.sessions

        run(
            with_manager(
                ServiceConfig(n_workers=1, idle_timeout_s=0.2), body
            )
        )

    def test_subscribers_hold_off_the_reaper(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            manager.subscribe("s")
            await asyncio.sleep(0.6)
            assert "s" in manager.sessions

        run(
            with_manager(
                ServiceConfig(n_workers=1, idle_timeout_s=0.2), body
            )
        )


class TestStreaming:
    def test_frames_carry_sequence_and_estimates(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            queue = manager.subscribe("s")
            await manager.step_session("s", n=5)
            frames = []
            while len(queue):
                frames.append(await queue.get())
            return frames

        frames = run(with_manager(ServiceConfig(n_workers=1), body))
        assert [f["seq"] for f in frames] == sorted(f["seq"] for f in frames)
        types = [f["type"] for f in frames]
        assert "iteration" in types and "step" in types and "finished" in types
        json.dumps(frames)  # every frame is wire-safe

    def test_slow_subscriber_drops_oldest_not_stepping(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            queue = manager.subscribe("s")
            await manager.step_session("s", n=5)  # >> 4 frames of capacity
            assert queue.dropped > 0
            assert len(queue) == 4
            # what remains is the newest tail of the stream
            last = None
            while len(queue):
                last = await queue.get()
            assert last["type"] == "finished"
            assert manager.metrics()["events_dropped_total"] > 0

        run(with_manager(ServiceConfig(n_workers=1, queue_size=4), body))


class TestFailover:
    def test_sigterm_worker_resumes_bit_identically(self, config_toml):
        """Kill the worker mid-run with SIGTERM; the manager respawns it,
        restores the session from its last checkpoint, and the final
        fingerprint still matches the serial run."""

        async def body(manager):
            await manager.create_session(config_toml, session_id="s")
            queue = manager.subscribe("s")
            await manager.step_session("s", n=2)
            os.kill(manager.sessions["s"].worker.pid, signal.SIGTERM)
            await asyncio.sleep(0.3)
            await manager.step_session("s", n=99)
            frames = []
            while len(queue):
                frames.append(await queue.get())
            assert any(f["type"] == "failover" for f in frames)
            assert manager.sessions["s"].failovers == 1
            assert manager.failovers_total == 1
            return await manager.result_session("s")

        result = run(
            with_manager(
                ServiceConfig(n_workers=1, checkpoint_every=2, queue_size=512),
                body,
            )
        )
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    def test_unaffected_worker_sessions_survive(self, config_toml):
        async def body(manager):
            await manager.create_session(config_toml, session_id="a")
            await manager.create_session(config_toml, session_id="b")
            workers = {
                manager.sessions["a"].worker.index,
                manager.sessions["b"].worker.index,
            }
            assert workers == {0, 1}  # least-loaded spread them out
            os.kill(manager.sessions["a"].worker.pid, signal.SIGTERM)
            await asyncio.sleep(0.3)
            await manager.step_session("a", n=99)
            await manager.step_session("b", n=99)
            assert manager.sessions["b"].failovers == 0
            return (
                await manager.result_session("a"),
                await manager.result_session("b"),
            )

        result_a, result_b = run(
            with_manager(ServiceConfig(n_workers=2, checkpoint_every=1), body)
        )
        serial = run_fingerprint(run_config(small_config()))
        assert result_a["fingerprint"] == serial
        assert result_b["fingerprint"] == serial


class TestDurableStore:
    def test_checkpoints_persist_and_cold_restart_resumes(
        self, config_toml, tmp_path
    ):
        store = tmp_path / "service.jsonl"

        async def first_life(manager):
            await manager.create_session(config_toml, session_id="s")
            await manager.step_session("s", n=2)

        run(
            with_manager(
                ServiceConfig(n_workers=1, checkpoint_every=1, store_path=store),
                first_life,
            )
        )
        records = [
            json.loads(line) for line in store.read_text().splitlines()
        ]
        kinds = [r["kind"] for r in records]
        assert "service-session" in kinds and "checkpoint" in kinds

        async def second_life(manager):
            restored = await manager.restore_from_store()
            assert restored == ["s"]
            assert manager.sessions["s"].next_iteration == 2
            await manager.step_session("s", n=99)
            return await manager.result_session("s")

        result = run(
            with_manager(
                ServiceConfig(n_workers=1, checkpoint_every=1, store_path=store),
                second_life,
            )
        )
        assert result["fingerprint"] == run_fingerprint(
            run_config(small_config())
        )

    def test_cold_restart_skips_a_record_it_cannot_restore(
        self, config_toml, tmp_path, caplog
    ):
        # one good session, and one whose config was written before the
        # kernel_backend option was retired: the restart restores the first
        # and logs the second instead of dying at startup
        store = tmp_path / "service.jsonl"

        async def first_life(manager):
            await manager.create_session(config_toml, session_id="good")
            await manager.step_session("good", n=2)

        run(
            with_manager(
                ServiceConfig(n_workers=1, checkpoint_every=1, store_path=store),
                first_life,
            )
        )
        records = [json.loads(line) for line in store.read_text().splitlines()]
        stale = []
        for rec in records:
            rec = dict(rec, session="stale")
            if rec["kind"] == "service-session":
                rec["config_toml"] = 'kernel_backend = "numpy"\n' + rec["config_toml"]
            stale.append(rec)
        with store.open("a") as handle:
            for rec in stale:
                handle.write(json.dumps(rec) + "\n")

        async def second_life(manager):
            restored = await manager.restore_from_store()
            assert restored == ["good"]
            assert set(manager.sessions) == {"good"}
            await manager.step_session("good", n=99)
            return await manager.result_session("good")

        with caplog.at_level(logging.WARNING, logger="repro.service.manager"):
            result = run(
                with_manager(
                    ServiceConfig(n_workers=1, checkpoint_every=1, store_path=store),
                    second_life,
                )
            )
        assert result["fingerprint"] == run_fingerprint(run_config(small_config()))
        assert any("'stale'" in r.getMessage() for r in caplog.records)
