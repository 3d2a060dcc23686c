"""RunOptions: the consolidated knob surface of :func:`run_tracking`.

``run_tracking`` started with one keyword (``rng``) and grew three more as
subsystems landed — ``fault_plan`` (fault injection), ``on_iteration`` (the
legacy per-step callback) and ``bus`` (the event bus).  Every new knob
widened the signature of every wrapper that forwards to the runner.  This
module freezes that growth: all run-shaping knobs live in one immutable
:class:`RunOptions` value that callers build once and pass as ``options=``.

The old bare keyword arguments (``fault_plan`` / ``on_iteration`` / ``bus``,
and later ``checkpoint_every`` / ``checkpoint_sink`` / ``resume_from``)
passed directly to ``run_tracking`` each went through a warn-once
deprecation shim for one release and are now rejected with a
:class:`TypeError` naming the offending keywords and the
``options=RunOptions(...)`` migration; checkpointing travels as
``options=RunOptions(checkpoint=CheckpointPolicy(...))``.

For per-iteration observation, prefer subscribing to the event bus over the
legacy callback::

    bus = EventBus()
    bus.subscribe(iteration_subscriber(lambda k, ctx, est: ...))
    run_tracking(tracker, scenario, trajectory, rng=rng,
                 options=RunOptions(bus=bus))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..runtime import EventBus, IterationEvent

if TYPE_CHECKING:  # pragma: no cover
    from ..network.faults import FaultPlan
    from ..runtime.checkpoint import RunCheckpoint
    from ..scenario import StepContext

__all__ = ["CheckpointPolicy", "RunOptions", "iteration_subscriber"]

#: signature of the legacy per-iteration callback
IterationCallback = Callable[[int, "StepContext", Any], None]


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where a tracking run snapshots (and resumes) its state.

    Parameters
    ----------
    every:
        Snapshot the full run state after every ``every``-th completed
        iteration (a :class:`~repro.runtime.checkpoint.RunCheckpoint` is
        handed to ``sink``).  ``None`` disables periodic snapshots.
    sink:
        Receives each periodic checkpoint; required when ``every`` is set.
        Typically appends to a JSONL store or a list.
    resume_from:
        A checkpoint to transplant into the freshly built run before the
        first step — the run continues from ``resume_from.iteration + 1``,
        bit-identical to the uninterrupted run.
    """

    every: int | None = None
    sink: "Callable[[RunCheckpoint], None] | None" = None
    resume_from: "RunCheckpoint | None" = None

    def __post_init__(self) -> None:
        if self.every is not None:
            if self.every < 1:
                raise ValueError(
                    f"checkpoint every must be >= 1, got {self.every}"
                )
            if self.sink is None:
                raise ValueError(
                    "CheckpointPolicy(every=...) requires a sink callable"
                )


@dataclass(frozen=True)
class RunOptions:
    """Everything that shapes a tracking run besides the world itself.

    Parameters
    ----------
    fault_plan:
        A :class:`~repro.network.faults.FaultPlan` replayed against the
        tracker's medium at the start of each iteration (crash/sleep/wake
        events); ``None`` runs fault-free.
    bus:
        An :class:`~repro.runtime.events.EventBus` attached for the run:
        the pipeline emits per-phase events on it and the runner emits one
        :class:`~repro.runtime.events.IterationEvent` per step.
    on_iteration:
        The legacy plain-callable hook ``(iteration, context, estimate)``.
        Still honored, but new code should subscribe to ``bus`` via
        :func:`iteration_subscriber` instead — the bus also carries phase
        events and composes with other subscribers.
    checkpoint:
        A :class:`CheckpointPolicy` shaping periodic snapshots and resume;
        ``None`` runs without checkpointing.
    """

    fault_plan: "FaultPlan | None" = None
    bus: EventBus | None = None
    on_iteration: IterationCallback | None = None
    checkpoint: CheckpointPolicy | None = None


def iteration_subscriber(callback: IterationCallback) -> Callable[[Any], None]:
    """Adapt an ``(iteration, context, estimate)`` callback to a bus handler.

    The returned handler ignores every event except
    :class:`~repro.runtime.events.IterationEvent`, on which it invokes
    ``callback`` with the legacy ``on_iteration`` argument shape — the
    recommended migration path off the deprecated ``on_iteration`` kwarg.
    """

    def handler(event: Any) -> None:
        if isinstance(event, IterationEvent):
            callback(event.iteration, event.context, event.estimate)

    return handler
