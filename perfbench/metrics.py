"""What the benchmark reports: workloads, metrics, bounds, and which
end-to-end number each per-layer number should move.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --manifest``) and a test keeps the two equal.
"""

from __future__ import annotations

__all__ = [
    "END_TO_END",
    "FAMILY_PHASES",
    "MOVES",
    "PER_LAYER",
    "RUN_SECONDS",
    "WORKLOADS",
    "manifest",
]

#: seconds one untraced run measures for
RUN_SECONDS = 25

WORKLOADS: dict[str, str] = {
    "grid-serial": (
        "Paper grid (densities 5-40, CPF/SDPF/CDPF/CDPF-NE, paired seeds) via "
        "run_sweep(backend='serial'): the per-message Medium and GridIndex path "
        "that serial runs, checkpoint replay and sessions share"
    ),
    "grid-batched": (
        "CDPF/CDPF-NE grid via run_sweep(backend='batched'), four seeds per "
        "(density, algorithm) so every lock-step group stacks cells: lockstep, "
        "NeighborhoodCache.warm and the stacked kernels"
    ),
    "service-sessions": (
        "SessionManager without HTTP, nproc-1 workers, one closed-loop client per "
        "worker running CDPF/CDPF-NE sessions back to back: per-step latency, "
        "checkpoint writes, IPC and stream fan-out"
    ),
}

#: (name, unit, better, bound); bound = tolerated worsening of the median
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("cells_per_s", "1/s", "higher", 0.2),
    ("steps_per_s", "1/s", "higher", 0.2),
    ("step_ms_p50", "ms", "lower", 0.2),
    ("step_ms_p95", "ms", "lower", 0.25),
    ("session_create_ms_p50", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_frac", "frac", "higher", 0.01),
)

#: the paper phases each tracker family declares, in pipeline order
FAMILY_PHASES: dict[str, tuple[str, ...]] = {
    "CDPF": ("propagation", "correction", "creation", "likelihood", "assign_weight"),
    "CDPF-NE": ("propagation", "correction", "creation", "assign_weight"),
    "SDPF": (
        "propagation", "creation", "share", "likelihood", "aggregation",
        "resample", "estimation",
    ),
    "CPF": ("sense", "convergecast", "sir_update"),
}

_SERIAL, _BATCHED, _SERVICE = "grid-serial", "grid-batched", "service-sessions"
_CDPF_MOVES = (
    ("cells_per_s", _SERIAL), ("cells_per_s", _BATCHED), ("step_ms_p50", _SERVICE),
)
_GRID_SERIAL_ONLY = (("cells_per_s", _SERIAL),)

#: per-layer metric -> (unit, end-to-end metrics and workloads it should move).
#: Exact counts move nothing: they must repeat for the same seed.
MOVES: dict[str, tuple[str, tuple[tuple[str, str], ...]]] = {
    "scenario.build_ms": ("ms", (("cells_per_s", _BATCHED),)),
    "runner.step_context_ms": ("ms", (("cells_per_s", _SERIAL), ("step_ms_p50", _SERVICE))),
    **{
        f"phase.{family}.{phase}_ms": (
            "ms", _CDPF_MOVES if family.startswith("CDPF") else _GRID_SERIAL_ONLY,
        )
        for family, phases in FAMILY_PHASES.items()
        for phase in phases
    },
    **{
        f"comm.{family}.{what}": ("count", ())
        for family in FAMILY_PHASES
        for what in ("bytes", "messages")
    },
    "spatial.calls": ("count", ()),
    "spatial.self_ms": ("ms", (("cells_per_s", _SERIAL), ("step_ms_p50", _SERVICE))),
    "medium.flush_calls": ("count", ()),
    "medium.self_ms": ("ms", (("cells_per_s", _SERIAL), ("step_ms_p50", _SERVICE))),
    "kernels.calls": ("count", ()),
    "kernels.self_ms": ("ms", (("cells_per_s", _BATCHED),)),
    "lockstep.cells_per_group": ("count", ()),
    "lockstep.fallback_cells": ("count", ()),
    "lockstep.self_ms": ("ms", (("cells_per_s", _BATCHED),)),
    "core.self_ms": ("ms", _GRID_SERIAL_ONLY),
    "baselines.self_ms": ("ms", _GRID_SERIAL_ONLY),
    "other.self_ms": ("ms", (("cells_per_s", _SERIAL), ("cells_per_s", _BATCHED))),
    "config.compile_ms": ("ms", (("session_create_ms_p50", _SERVICE),)),
    "checkpoint.encode_ms": (
        "ms", (("step_ms_p95", _SERVICE), ("session_create_ms_p50", _SERVICE)),
    ),
    "checkpoint.kb": ("KB", ()),
    "service.worker_spawn_s": ("s", (("setup_s", _SERVICE),)),
    "service.worker_step_ms_p50": (
        "ms", (("step_ms_p50", _SERVICE), ("steps_per_s", _SERVICE)),
    ),
    "service.overhead_ms_p50": (
        "ms", (("step_ms_p50", _SERVICE), ("steps_per_s", _SERVICE)),
    ),
    "service.frames_dropped_frac": ("frac", ()),
    "trace.unit_wall_ms": ("ms", ()),
    "trace.overhead_frac": ("frac", ()),
    "trace.missing_entry_points": ("count", ()),
}

#: per-layer metrics where a larger value is the better one
_HIGHER_IS_BETTER = {"lockstep.cells_per_group"}

PER_LAYER: tuple[tuple[str, str, str], ...] = tuple(
    (name, unit, "higher" if name in _HIGHER_IS_BETTER else "lower")
    for name, (unit, _) in MOVES.items()
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
