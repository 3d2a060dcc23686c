"""RunOptions, the factory registry, and the retired legacy-kwarg surface."""

import pickle
import warnings

import numpy as np
import pytest

from repro import (
    CheckpointPolicy,
    RunOptions,
    iteration_subscriber,
    make_tracker,
    tracker_factory,
    tracker_names,
)
from repro.experiments.runner import run_tracking
from repro.runtime import EventBus, PhaseEvent


def _run(small_scenario, small_trajectory, **kwargs):
    tracker = make_tracker("CDPF", small_scenario, rng=np.random.default_rng(1))
    return run_tracking(
        tracker,
        small_scenario,
        small_trajectory,
        rng=np.random.default_rng(7),
        **kwargs,
    )


class TestRetiredLegacyKwargs:
    """The bare fault_plan/on_iteration/bus and checkpoint_every/
    checkpoint_sink/resume_from kwargs each went through one release of
    warn-once deprecation and are now rejected outright."""

    @pytest.mark.parametrize("name", [
        "fault_plan", "on_iteration", "bus",
        "checkpoint_every", "checkpoint_sink", "resume_from",
    ])
    def test_retired_kwarg_raises_with_migration_hint(
        self, small_scenario, small_trajectory, name
    ):
        with pytest.raises(TypeError, match=r"RunOptions") as excinfo:
            _run(small_scenario, small_trajectory, **{name: object()})
        assert name in str(excinfo.value)

    def test_all_retired_kwargs_named_at_once(self, small_scenario, small_trajectory):
        with pytest.raises(TypeError, match="bus, fault_plan, on_iteration"):
            _run(
                small_scenario,
                small_trajectory,
                fault_plan=object(),
                on_iteration=lambda k, ctx, est: None,
                bus=EventBus(),
            )

    def test_retired_kwargs_rejected_even_with_options(
        self, small_scenario, small_trajectory
    ):
        with pytest.raises(TypeError, match="RunOptions"):
            _run(
                small_scenario,
                small_trajectory,
                options=RunOptions(),
                fault_plan=object(),
            )

    def test_unknown_kwarg_still_a_plain_typeerror(
        self, small_scenario, small_trajectory
    ):
        with pytest.raises(TypeError, match="unexpected keyword"):
            _run(small_scenario, small_trajectory, no_such_option=1)

    def test_options_path_never_warns(self, small_scenario, small_trajectory):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _run(small_scenario, small_trajectory, options=RunOptions())

    def test_shim_helpers_are_gone(self):
        from repro.experiments import options as options_mod
        from repro.experiments import runner as runner_mod

        assert not hasattr(options_mod, "warn_legacy_run_kwargs")
        assert not hasattr(options_mod, "reset_legacy_kwargs_warning")
        assert not hasattr(runner_mod, "reset_checkpoint_kwargs_warning")


class TestCheckpointPolicy:
    def test_every_requires_sink(self):
        with pytest.raises(ValueError, match="sink"):
            CheckpointPolicy(every=3)

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            CheckpointPolicy(every=0, sink=lambda cp: None)

    def test_frozen(self):
        policy = CheckpointPolicy()
        with pytest.raises(AttributeError):
            policy.every = 2

    def test_policy_path_never_warns(self, small_scenario, small_trajectory):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _run(
                small_scenario, small_trajectory,
                options=RunOptions(checkpoint=CheckpointPolicy(
                    every=1, sink=lambda cp: None)),
            )


class TestIterationSubscriber:
    def test_equivalent_to_legacy_hook(self, small_scenario, small_trajectory):
        via_bus: list[int] = []
        bus = EventBus()
        bus.subscribe(iteration_subscriber(lambda k, ctx, est: via_bus.append(k)))
        _run(small_scenario, small_trajectory, options=RunOptions(bus=bus))
        assert via_bus == list(range(small_trajectory.n_iterations + 1))

    def test_ignores_phase_events(self):
        calls = []
        handler = iteration_subscriber(lambda k, ctx, est: calls.append(k))
        handler(PhaseEvent(kind="end", tracker="x", iteration=0, phase="p"))
        assert calls == []


class TestFactoryRegistry:
    def test_names_cover_the_papers_algorithms(self):
        names = tracker_names()
        for expected in ("CPF", "SDPF", "CDPF", "CDPF-NE", "DPF-gmm", "DPF-quantized"):
            assert expected in names

    def test_make_tracker_matches_direct_construction(self, small_scenario, small_trajectory):
        from repro.core.cdpf import CDPFTracker

        a = make_tracker("CDPF-NE", small_scenario, rng=np.random.default_rng(3))
        b = CDPFTracker(
            small_scenario, rng=np.random.default_rng(3), neighborhood_estimation=True
        )
        ra = run_tracking(a, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        rb = run_tracking(b, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        assert set(ra.estimates) == set(rb.estimates)
        for k in ra.estimates:
            assert np.array_equal(ra.estimates[k], rb.estimates[k]), k
        assert ra.total_bytes == rb.total_bytes

    def test_kwargs_forward_to_constructor(self, small_scenario):
        tracker = make_tracker(
            "DPF-quantized", small_scenario, rng=np.random.default_rng(0),
            quantization_bits=12,
        )
        assert tracker.bits == 12

    def test_unknown_name_raises(self, small_scenario):
        with pytest.raises(ValueError, match="unknown tracker"):
            make_tracker("nope", small_scenario, rng=np.random.default_rng(0))

    def test_factory_is_picklable(self, small_scenario):
        factory = tracker_factory("SDPF")
        clone = pickle.loads(pickle.dumps(factory))
        tracker = clone(small_scenario, np.random.default_rng(0))
        assert tracker.name == "SDPF"

    def test_duplicate_registration_rejected(self):
        from repro.factory import register_tracker

        with pytest.raises(ValueError, match="already registered"):
            register_tracker("CDPF")(lambda s, *, rng, **kw: None)
