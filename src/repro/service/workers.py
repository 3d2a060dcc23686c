"""The CPU shard: session stepping in worker processes over a duplex pipe.

One :func:`worker_main` process hosts many :class:`~repro.service.session.
SessionCore` objects and serves a tiny request/response protocol — plain
picklable dicts with a request id, matched to replies by that id.  The async
side (:class:`WorkerHandle`) registers the pipe and the process sentinel with
the event loop, so replies resolve futures without polling and a dead worker
fails every in-flight call with :class:`~repro.service.errors.WorkerDied`
immediately.

Sessions *migrate* between workers by round-tripping through their
:class:`~repro.runtime.checkpoint.RunCheckpoint` JSON — the same codec the
sweep store uses — which is also exactly the failover path: respawn, then
``create(resume_from=last_checkpoint)``.

The pool uses the ``spawn`` start method: a worker must not inherit the
parent's event loop, signal handlers, or open sockets, and a SIGTERM'd
worker (the failover drill) must die without corrupting shared state.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing as mp
import os
import signal
from typing import Any

from .errors import ServiceError, SessionNotFound, SessionStateError, WorkerDied

__all__ = ["WorkerHandle", "worker_main"]

_SPAWN = mp.get_context("spawn")


def _dispatch(sessions: dict, request: dict) -> Any:
    """Execute one worker op; raises ServiceError subclasses for bad calls."""
    from .session import SessionCore  # after spawn: import in the worker

    op = request["op"]
    if op == "ping":
        return {"pid": os.getpid(), "sessions": len(sessions)}
    if op == "create":
        session_id = request["session_id"]
        if session_id in sessions:
            raise SessionStateError(f"session {session_id!r} already on this worker")
        core = SessionCore(
            request["config_toml"], resume_from=request.get("resume_from")
        )
        sessions[session_id] = core
        return core.describe()
    session_id = request["session_id"]
    if op == "destroy":
        if sessions.pop(session_id, None) is None:
            raise SessionNotFound(session_id)
        return {"destroyed": True}
    core = sessions.get(session_id)
    if core is None:
        raise SessionNotFound(session_id)
    if op == "step":
        if core.done:
            raise SessionStateError(
                f"session {session_id!r} already finished its "
                f"{core.n_iterations + 1} iterations"
            )
        return core.step()
    if op == "checkpoint":
        return core.checkpoint()
    if op == "describe":
        return core.describe()
    if op == "result":
        if not core.done:
            raise SessionStateError(
                f"session {session_id!r} is at iteration "
                f"{core.next_iteration} of {core.n_iterations}; no result yet"
            )
        return core.result()
    raise ServiceError(f"unknown worker op {op!r}")


def worker_main(conn) -> None:
    """Body of one worker process: serve requests until EOF or shutdown.

    SIGTERM is left at its default (terminate): the manager treats a vanished
    worker as failover, and the CI smoke drill kills workers exactly this way.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent owns ^C
    sessions: dict[str, Any] = {}
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            return
        if request.get("op") == "shutdown":
            conn.send({"id": request["id"], "ok": True, "value": None})
            return
        try:
            value = _dispatch(sessions, request)
            reply = {"id": request["id"], "ok": True, "value": value}
        except ServiceError as exc:
            reply = {
                "id": request["id"],
                "ok": False,
                "error": {"code": exc.code, "status": exc.status, "message": str(exc)},
            }
        except Exception as exc:  # noqa: BLE001 — a worker must never die on a bad op
            reply = {
                "id": request["id"],
                "ok": False,
                "error": {
                    "code": "internal",
                    "status": 500,
                    "message": f"{type(exc).__name__}: {exc}",
                },
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def _rebuild_error(error: dict) -> ServiceError:
    """Worker-side ServiceError back into the matching typed exception."""
    by_code = {
        cls.code: cls
        for cls in (SessionNotFound, SessionStateError, ServiceError)
    }
    cls = by_code.get(error.get("code"), ServiceError)
    if cls is SessionNotFound:
        # reconstructable from the message alone; keep the worker's text
        exc = SessionNotFound.__new__(SessionNotFound)
        RuntimeError.__init__(exc, error["message"])
        return exc
    return cls(error["message"])


class WorkerHandle:
    """Async proxy for one worker process."""

    _ids = itertools.count(1)

    def __init__(self, index: int):
        self.index = index
        self._parent_conn, child_conn = _SPAWN.Pipe()
        self.process = _SPAWN.Process(
            target=worker_main, args=(child_conn,), daemon=True,
            name=f"repro-service-worker-{index}",
        )
        self.process.start()
        child_conn.close()  # the worker holds the only child end now
        self._pending: dict[int, asyncio.Future] = {}
        self._dead = False
        loop = asyncio.get_running_loop()
        loop.add_reader(self._parent_conn.fileno(), self._on_readable)
        loop.add_reader(self.process.sentinel, self._on_process_exit)

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()

    def _on_readable(self) -> None:
        try:
            while self._parent_conn.poll():
                reply = self._parent_conn.recv()
                future = self._pending.pop(reply["id"], None)
                if future is None or future.done():
                    continue
                if reply["ok"]:
                    future.set_result(reply["value"])
                else:
                    future.set_exception(_rebuild_error(reply["error"]))
        except (EOFError, OSError):
            self._mark_dead()

    def _on_process_exit(self) -> None:
        self._mark_dead()

    def _mark_dead(self) -> None:
        if self._dead:
            return
        self._dead = True
        loop = asyncio.get_running_loop()
        try:
            loop.remove_reader(self._parent_conn.fileno())
        except (OSError, ValueError):
            pass
        try:
            loop.remove_reader(self.process.sentinel)
        except (OSError, ValueError):
            pass
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    WorkerDied(f"worker {self.index} (pid {self.pid}) died")
                )
        self._pending.clear()

    async def call(self, op: str, **kwargs) -> Any:
        """One request/response round-trip; raises typed errors."""
        if self._dead:
            raise WorkerDied(f"worker {self.index} (pid {self.pid}) is gone")
        request_id = next(self._ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._parent_conn.send({"id": request_id, "op": op, **kwargs})
        except (BrokenPipeError, OSError):
            self._pending.pop(request_id, None)
            self._mark_dead()
            raise WorkerDied(
                f"worker {self.index} (pid {self.pid}) died mid-send"
            ) from None
        return await future

    async def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful stop; escalates to terminate if the worker hangs."""
        if not self._dead:
            try:
                await asyncio.wait_for(self.call("shutdown"), timeout)
            except (ServiceError, asyncio.TimeoutError):
                pass
        self._mark_dead()
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=timeout)
        self._parent_conn.close()
