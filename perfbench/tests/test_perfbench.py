"""Tests of the benchmark's own helpers and a tiny run of every workload.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.metrics import END_TO_END, MOVES, WORKLOADS, manifest  # noqa: E402
from perfbench.stats import (  # noqa: E402
    HostSpeed,
    StartupSpeed,
    percentile,
    percentile_supported,
    samples_beyond,
    spread,
)
from perfbench.tracing import ROOT as ROOT_LAYER  # noqa: E402
from perfbench.tracing import Tracer, install, reduce_spans  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


# -- the percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 10, 57, 200, 1001])
@pytest.mark.parametrize("q", [5, 50, 95])
def test_percentile_matches_statistics_quantiles(n, q):
    values = [((i * 7919) % 1013) / 7.0 for i in range(n)]
    rank = (n + 1) * q / 100
    if rank < 1:  # quantiles() extrapolates past the data; we clamp
        expected = min(values)
    elif rank > n:
        expected = max(values)
    else:
        expected = statistics.quantiles(values, n=100)[q - 1]
    assert percentile(values, q) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_ten_samples_beyond_the_reported_percentile():
    assert samples_beyond(200, 95) == 10
    assert percentile_supported(200, 95)
    assert not percentile_supported(199, 95)
    assert percentile_supported(20, 50)
    assert not percentile_supported(19, 50)


@pytest.mark.parametrize("n", [20, 137, 200, 999])
def test_samples_beyond_counts_values_above_the_percentile(n):
    values = list(range(n))
    p95 = percentile(values, 95)
    assert samples_beyond(n, 95) == sum(1 for v in values if v > p95)


def test_local_slowdown_is_the_median_of_the_probes_around_one():
    host = HostSpeed()
    host.samples = [n * HostSpeed.NOMINAL_S for n in (1.0, 9.0, 2.0, 3.0, 4.0, 5.0)]
    assert host.local_slowdown(0) == pytest.approx(2.0)  # probes 0..2
    assert host.local_slowdown(3) == pytest.approx(4.0)  # probes 1..5
    assert host.local_slowdown(5) == pytest.approx(4.0)  # probes 3..5
    assert host.slowdown == pytest.approx(3.5)


def test_startup_rescale_divides_each_setup_by_the_probes_around_it():
    startup = StartupSpeed()
    nominal = StartupSpeed.NOMINAL_S
    startup.samples = [nominal, 3 * nominal, 2 * nominal]
    assert startup.rescale([2.0, 5.0]) == pytest.approx([1.0, 2.0])
    with pytest.raises(ValueError):
        startup.rescale([2.0])


def test_spread_is_interquartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 11.0, 12.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert spread([4.0]) == 0.0


# -- self-time arithmetic -----------------------------------------------------


def _span(tracer: Tracer, parent: int, layer: str, name: str, start: float, end: float) -> int:
    tracer.parent.append(parent)
    tracer.layer.append(layer)
    tracer.name.append(name)
    tracer.start.append(start)
    tracer.end.append(end)
    return len(tracer.start) - 1


def test_self_time_is_duration_minus_direct_children():
    t = Tracer()
    root = _span(t, -1, ROOT_LAYER, "cell", 0.0, 10.0)
    core = _span(t, root, "core", "CDPFTracker.step", 1.0, 8.0)
    medium = _span(t, core, "medium", "Medium.broadcast", 2.0, 5.0)
    _span(t, medium, "medium", "TransmissionBatch.flush", 3.0, 4.0)
    _span(t, medium, "spatial", "GridIndex.query_disk", 4.0, 4.5)
    _span(t, core, "kernels", "batch_likelihood", 6.0, 7.0)
    _span(t, root, "runner", "generate_step_context", 8.5, 9.0)

    totals = reduce_spans(t)["cell"]
    assert totals.self_seconds == pytest.approx({
        ROOT_LAYER: 10.0 - 7.0 - 0.5,
        "core": 7.0 - 3.0 - 1.0,
        "medium": (3.0 - 1.0 - 0.5) + 1.0,
        "spatial": 0.5,
        "kernels": 1.0,
        "runner": 0.5,
    })
    assert sum(totals.self_seconds.values()) == pytest.approx(totals.root_seconds)
    # a nested call inside the same layer is not a new entry into it
    assert totals.entries["medium"] == 1
    assert totals.calls["TransmissionBatch.flush"] == 1


def test_roots_of_different_kinds_are_kept_apart():
    t = Tracer()
    a = _span(t, -1, ROOT_LAYER, "create", 0.0, 2.0)
    _span(t, a, "config", "compile_config", 0.5, 1.5)
    b = _span(t, -1, ROOT_LAYER, "step", 2.0, 3.0)
    _span(t, b, "core", "CDPFTracker.step", 2.0, 2.75)
    reduced = reduce_spans(t)
    assert reduced["create"].self_seconds == pytest.approx({ROOT_LAYER: 1.0, "config": 1.0})
    assert reduced["step"].self_seconds == pytest.approx({ROOT_LAYER: 0.25, "core": 0.75})
    assert reduced["step"].roots == 1


# -- wrapping entry points ----------------------------------------------------


def test_missing_entry_points_are_reported_not_fatal():
    tracer = Tracer()
    inst = install(tracer, {
        "core": ("repro.core.cdpf:CDPFTracker.no_such_method",),
        "gone": ("repro.no_such_module:f", "repro.scenario:NoSuchClass.step"),
        "scenario": ("repro.scenario:make_trajectory",),
    })
    try:
        assert inst.wrapped == ["repro.scenario:make_trajectory"]
        assert len(inst.missing) == 3
    finally:
        inst.uninstall()


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    import repro
    import repro.experiments.lockstep as lockstep
    import repro.scenario as scenario

    original = scenario.make_paper_scenario
    tracer = Tracer()
    inst = install(tracer)
    try:
        assert inst.missing == []
        assert scenario.make_paper_scenario is not original
        assert lockstep.make_paper_scenario is scenario.make_paper_scenario
        assert repro.make_paper_scenario is scenario.make_paper_scenario
    finally:
        inst.uninstall()
    assert scenario.make_paper_scenario is original
    assert lockstep.make_paper_scenario is original


def test_wrappers_record_only_inside_a_root_and_keep_generators_lazy():
    def gen(n):
        yield from range(n)

    tracer = Tracer()
    wrapped_gen = tracer.wrap(gen, "lockstep", "gen")
    wrapped_fn = tracer.wrap(lambda x: x + 1, "kernels", "inc")
    assert wrapped_fn(1) == 2 and list(wrapped_gen(3)) == [0, 1, 2]
    assert len(tracer) == 0
    with tracer.root("call"):
        it = wrapped_gen(2)
        assert len(tracer) == 1  # only the root: the generator has not started
        assert [wrapped_fn(v) for v in it] == [1, 2]
    totals = reduce_spans(tracer)["call"]
    assert totals.entries == {"lockstep": 1, "kernels": 2}
    # the kernel calls ran while the generator was suspended in its span
    assert sum(totals.self_seconds.values()) == pytest.approx(totals.root_seconds)


# -- the manifest -------------------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_manifest_is_generated_from_metrics_module():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest()


def test_manifest_meets_the_benchmark_contract():
    doc = manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert all(_UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(m["better"] in ("higher", "lower") for m in doc["end_to_end"] + doc["per_layer"])


def test_every_moves_entry_names_a_real_metric_and_workload():
    e2e = {name for name, *_ in END_TO_END}
    for layer_metric, (_, moves) in MOVES.items():
        for metric, workload in moves:
            assert metric in e2e, layer_metric
            assert workload in WORKLOADS, layer_metric


# -- tiny runs of every workload ----------------------------------------------


def _result(args, cwd=ROOT):
    done = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", "0", "--smoke"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, *_ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_trace_reports_every_per_layer_metric_with_exact_counts(workload):
    args = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke"]
    first, second = _result(args), _result(args)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(MOVES)
    assert first["metrics"]["trace.missing_entry_points"]["value"] == 0
    if workload == "grid-batched":  # filled by the partition_batchable hook
        assert first["metrics"]["lockstep.cells_per_group"]["value"] > 1
    counts = [name for name, (unit, _) in MOVES.items() if unit == "count"]
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
