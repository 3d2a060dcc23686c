"""Runner, sweep, report, figures, summary — the harness end to end."""

import numpy as np
import pytest

from repro.core.cdpf import CDPFTracker
from repro.experiments.options import RunOptions
from repro.experiments.report import format_number, render_series, render_table
from repro.experiments.runner import generate_step_context, run_tracking
from repro.experiments.summary import extract_headline_claims
from repro.experiments.sweep import SweepPoint, SweepResult, density_sweep


class TestGenerateStepContext:
    def test_every_detector_has_a_measurement(self, small_scenario, small_trajectory, rng):
        ctx = generate_step_context(small_scenario, small_trajectory, 1, rng)
        assert set(ctx.measurements) == {int(d) for d in ctx.detectors}

    def test_detectors_near_target(self, small_scenario, small_trajectory, rng):
        ctx = generate_step_context(small_scenario, small_trajectory, 1, rng)
        target = small_trajectory.position_at_iteration(1)
        pos = small_scenario.deployment.positions
        for d in ctx.detectors:
            assert np.linalg.norm(pos[int(d)] - target) <= small_scenario.sensing_radius + 1e-9

    def test_measurements_are_bearings_to_target(self, small_scenario, small_trajectory, rng):
        ctx = generate_step_context(small_scenario, small_trajectory, 1, rng)
        target = small_trajectory.position_at_iteration(1)
        pos = small_scenario.deployment.positions
        for nid, z in ctx.measurements.items():
            d = target - pos[nid]
            expected = np.arctan2(d[1], d[0])
            # within a few sigma (noise 0.05 + bias 0.025)
            assert abs(np.mod(z - expected + np.pi, 2 * np.pi) - np.pi) < 0.5

    def test_common_bias_shared_within_iteration(self, small_scenario, small_trajectory):
        """All sensors in one iteration share the same bias draw: the
        bias-corrected residuals must be positively correlated."""
        residuals = []
        for seed in range(200):
            ctx = generate_step_context(
                small_scenario, small_trajectory, 1, np.random.default_rng(seed)
            )
            target = small_trajectory.position_at_iteration(1)
            pos = small_scenario.deployment.positions
            rs = []
            for nid, z in list(ctx.measurements.items())[:2]:
                d = target - pos[nid]
                rs.append(float(np.mod(z - np.arctan2(d[1], d[0]) + np.pi, 2 * np.pi) - np.pi))
            if len(rs) == 2:
                residuals.append(rs)
        r = np.array(residuals)
        corr = np.corrcoef(r[:, 0], r[:, 1])[0, 1]
        assert corr > 0.1  # the shared-bias component


    @pytest.mark.parametrize("reference", ["node", "origin"])
    def test_vectorized_bearings_match_per_detector_measure(self, reference):
        """The one-pass bearing draw consumes the sensing stream exactly as
        the per-detector ``BearingMeasurement.measure`` loop, value for value."""
        from repro.models.measurement import BearingMeasurement
        from repro.scenario import make_paper_scenario, make_trajectory

        rng = np.random.default_rng(7)
        scenario = make_paper_scenario(
            density_per_100m2=10.0, rng=rng, width=80.0, height=60.0
        ).with_(measurement=BearingMeasurement(noise_std=0.05, reference=reference))
        trajectory = make_trajectory(n_iterations=5, rng=rng, start=(5.0, 30.0))
        fast_rng = np.random.default_rng(123)
        slow_rng = np.random.default_rng(123)
        positions = scenario.physical_deployment.positions
        for k in range(6):
            ctx = generate_step_context(scenario, trajectory, k, fast_rng)
            detectors = scenario.detection.detect(
                scenario.physical_deployment.index,
                trajectory.position_at_iteration(k)[None, :],
                slow_rng,
            )
            assert np.array_equal(ctx.detectors, detectors)
            bias = (
                slow_rng.normal(0.0, scenario.measurement_bias_std)
                if scenario.measurement_bias_std
                else 0.0
            )
            state = np.concatenate(
                [trajectory.position_at_iteration(k), trajectory.velocity_at_iteration(k)]
            )
            for nid in detectors:
                z = scenario.measurement.measure(state, slow_rng, positions[int(nid)]) + bias
                assert ctx.measurements[int(nid)] == z, (k, nid)
        # both streams end in the same state
        assert fast_rng.random() == slow_rng.random()


class TestRunTracking:
    def test_result_fields(self, small_scenario, small_trajectory):
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        res = run_tracking(tr, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        assert res.tracker_name == "CDPF"
        assert res.truth.shape == (small_trajectory.n_iterations + 1, 2)
        assert res.bytes_per_iteration.shape == (small_trajectory.n_iterations + 1,)
        assert res.total_bytes == res.bytes_per_iteration.sum()
        assert res.total_messages == res.messages_per_iteration.sum()
        assert len(res.detectors_per_iteration) == small_trajectory.n_iterations + 1

    def test_on_iteration_callback(self, small_scenario, small_trajectory):
        seen = []
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        run_tracking(
            tr,
            small_scenario,
            small_trajectory,
            rng=np.random.default_rng(7),
            options=RunOptions(on_iteration=lambda k, ctx, est: seen.append(k)),
        )
        assert seen == list(range(small_trajectory.n_iterations + 1))

    def test_estimates_filed_under_reference_iteration(self, small_scenario, small_trajectory):
        """CDPF's latency: the estimate returned at k refers to k-1."""
        tr = CDPFTracker(small_scenario, rng=np.random.default_rng(1))
        res = run_tracking(tr, small_scenario, small_trajectory, rng=np.random.default_rng(7))
        # estimates exist for 0 .. K-1 but not K (never corrected)
        assert small_trajectory.n_iterations not in res.estimates
        assert 0 in res.estimates


class TestSweep:
    @pytest.fixture(scope="class")
    def tiny_sweep(self):
        return density_sweep(
            densities=(5, 10),
            n_seeds=2,
            n_iterations=4,
            scenario_kwargs={"width": 80.0, "height": 60.0},
            trajectory_kwargs={"start": (5.0, 30.0)},
        )

    def test_all_cells_populated(self, tiny_sweep):
        assert len(tiny_sweep.points) == 2 * 4
        for pt in tiny_sweep.points.values():
            assert len(pt.rmse_runs) == 2

    def test_series_extraction(self, tiny_sweep):
        b = tiny_sweep.series("CPF", "total_bytes")
        assert b.shape == (2,)
        assert (b > 0).all()

    def test_reduction_vs(self, tiny_sweep):
        red = tiny_sweep.reduction_vs("CDPF-NE", "SDPF")
        assert red.shape == (2,)
        assert (red > 0).all()

    def test_headline_claims_extractable(self, tiny_sweep):
        claims = extract_headline_claims(tiny_sweep)
        rows = claims.as_rows()
        assert len(rows) == 9
        assert 0.0 < claims.cdpf_vs_sdpf_cost_reduction_max < 1.0

    def test_headline_requires_all_algorithms(self):
        sweep = SweepResult(densities=[5.0], algorithms=["CPF"], points={})
        with pytest.raises(ValueError, match="missing"):
            extract_headline_claims(sweep)


class TestMeanBytesPerIteration:
    def _result(self, bytes_per_iter, detectors):
        from repro.experiments.metrics import ErrorSummary
        from repro.experiments.runner import TrackingResult

        n = len(bytes_per_iter)
        return TrackingResult(
            tracker_name="X",
            estimates={},
            truth=np.zeros((n, 2)),
            n_iterations=n - 1,
            total_bytes=int(sum(bytes_per_iter)),
            total_messages=0,
            bytes_per_iteration=np.asarray(bytes_per_iter, dtype=np.int64),
            messages_per_iteration=np.zeros(n, dtype=np.int64),
            bytes_by_category={},
            error=ErrorSummary(float("nan"), float("nan"), float("nan"), 0, n),
            detectors_per_iteration=detectors,
        )

    def test_active_zero_cost_iteration_counts(self):
        """An iteration with detectors but 0 bytes is ACTIVE and must pull
        the mean down (the old bytes>0 filter silently dropped it)."""
        r = self._result([0, 100, 0, 50], [0, 3, 2, 1])
        assert r.mean_bytes_per_iteration == pytest.approx((100 + 0 + 50) / 3)

    def test_outside_field_iterations_excluded(self):
        r = self._result([0, 100, 0, 0], [0, 3, 0, 0])
        assert r.mean_bytes_per_iteration == pytest.approx(100.0)

    def test_no_active_iterations_is_zero(self):
        r = self._result([0, 0], [0, 0])
        assert r.mean_bytes_per_iteration == 0.0

    def test_legacy_fallback_without_detector_counts(self):
        r = self._result([0, 100, 0, 50], [])
        assert r.mean_bytes_per_iteration == pytest.approx(75.0)


class TestSweepPoint:
    def test_nan_rmse_runs_skipped(self):
        pt = SweepPoint(5.0, "X", rmse_runs=[1.0, float("nan"), 3.0])
        assert pt.rmse == pytest.approx(2.0)

    def test_empty_point_is_nan(self):
        pt = SweepPoint(5.0, "X")
        assert np.isnan(pt.rmse)
        assert np.isnan(pt.total_bytes)


class TestReport:
    def test_format_number(self):
        assert format_number(3) == "3"
        assert format_number(3.14159) == "3.14"
        assert format_number(float("nan")) == "-"
        assert format_number(None) == "-"
        assert format_number("abc") == "abc"
        assert format_number(2.0) == "2"

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [30, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_series(self):
        out = render_series("x", [1, 2], {"y": [10, 20], "z": [0.5, 0.25]})
        assert "x" in out and "y" in out and "z" in out
        assert "0.25" in out

    def test_render_series_length_checked(self):
        with pytest.raises(ValueError):
            render_series("x", [1, 2], {"y": [10]})


class TestAsciiChart:
    def test_basic_render(self):
        from repro.experiments.report import render_ascii_chart

        out = render_ascii_chart(
            [1, 2, 3], {"a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]}, title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "legend: *=a  o=b" in lines[-1]
        assert any("*" in l for l in lines)
        assert any("o" in l for l in lines)

    def test_log_scale(self):
        from repro.experiments.report import render_ascii_chart

        out = render_ascii_chart([1, 2], {"a": [1.0, 1000.0]}, log_y=True)
        assert "(log y)" in out

    def test_validation(self):
        from repro.experiments.report import render_ascii_chart
        import numpy as np
        import pytest as _pytest

        with _pytest.raises(ValueError):
            render_ascii_chart([1], {"a": [1.0, 2.0]})
        with _pytest.raises(ValueError):
            render_ascii_chart([1], {"a": [np.nan]})
        with _pytest.raises(ValueError):
            render_ascii_chart([1], {"a": [-1.0]}, log_y=True)
        with _pytest.raises(ValueError):
            render_ascii_chart([1], {"a": [1.0]}, height=1)

    def test_flat_series_does_not_crash(self):
        from repro.experiments.report import render_ascii_chart

        out = render_ascii_chart([1, 2, 3], {"a": [5.0, 5.0, 5.0]})
        assert "*" in out
