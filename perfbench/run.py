"""Benchmark entry point: one command, three workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload grid-batched --seed 1 --trace 1
    python3 perfbench/run.py --workload all --repeat 10     # steadiness check
    python3 perfbench/run.py --manifest                     # BENCHMARK.json

A single run prints host facts, the run's details and one line per metric
(name, value, unit), then, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run.  The program under test is imported from ``src/`` of the checkout the
script sits in; without it the run fails before printing a result.

``--repeat N`` runs N single runs in fresh processes with seeds
``seed .. seed+N-1`` and reports each metric's median, quartiles and relative
spread, with the end-to-end bounds of ``BENCHMARK.json`` for comparison.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT_DIR / "src"
WORKLOAD_NAMES = ("grid-serial", "grid-batched", "service-sessions")
#: where a traced run writes its spans, relative to the checkout
SPANS_DIR = ".perfbench"


def _import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src/`` and only there."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(1, str(ROOT_DIR))
    import repro

    if Path(repro.__file__).resolve().parent != SRC_DIR / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC_DIR}")


def _setup_probe(workload: str, smoke: bool) -> None:
    """Time one grid set-up in this fresh interpreter; print the seconds."""
    t0 = time.perf_counter()
    _import_program()
    from perfbench.workloads import FULL, SMOKE, setup_once

    setup_once(workload, SMOKE if smoke else FULL)
    print(time.perf_counter() - t0)


def _single_run(args) -> int:
    _import_program()
    from perfbench.stats import host_facts
    from perfbench.workloads import FULL, SMOKE, measure, trace

    scale = SMOKE if args.smoke else FULL
    host = host_facts()
    print("host " + json.dumps(host, sort_keys=True))
    t0 = time.perf_counter()
    if args.trace:
        outcome = trace(args.workload, args.seed, scale)
    else:
        outcome = measure(args.workload, args.seed, args.seconds, scale, args.smoke)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_s": round(time.perf_counter() - t0, 3),
        **outcome.detail,
        "problems": outcome.problems,
    }
    if outcome.tracer is not None:
        spans_path = ROOT_DIR / SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        outcome.tracer.dump(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT_DIR))
    print("detail " + json.dumps(detail, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name:<32} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


def _repeat(args) -> int:
    """Run ``--repeat`` fresh single runs per workload; summarize spreads."""
    sys.path.insert(0, str(ROOT_DIR))
    from perfbench.metrics import END_TO_END
    from perfbench.stats import summarize

    bounds = {name: bound for name, _, _, bound in END_TO_END}
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for i in range(args.repeat):
            seed = args.seed + i
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.smoke:
                cmd.append("--smoke")
            done = subprocess.run(cmd, cwd=ROOT_DIR, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            detail = next((json.loads(line[len("detail "):]) for line in lines
                           if line.startswith("detail ")), {})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"host_slowdown={detail.get('host_slowdown')} raw={detail.get('raw')}",
                  flush=True)
        print(f"\n{workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            s = summarize(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  over bound/3"
            print(f"{name:<32} {s['median']:>12.4f} {s['q1']:>12.4f} {s['q3']:>12.4f} "
                  f"{s['spread']:>8.4f} {'' if bound is None else bound:>6}{flag}", flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N fresh single runs and report spreads")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json document and exit")
    parser.add_argument("--setup-probe", choices=WORKLOAD_NAMES[:2],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args.setup_probe, args.smoke)
        return 0
    sys.path.insert(0, str(ROOT_DIR))
    from perfbench.metrics import RUN_SECONDS, manifest

    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = RUN_SECONDS
    if args.repeat:
        return _repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    return _single_run(args)


if __name__ == "__main__":
    sys.exit(main())
