"""Perf ledger: end-to-end and per-layer metrics of the optimizer and plan server.

Run from the repository root::

    python3 benchmarks/ledger/run.py                      # all workloads, both runs
    python3 benchmarks/ledger/run.py --workload sparse-bounded --seed 5
    python3 benchmarks/ledger/run.py --quick              # 10-query / 2 s smoke
    python3 benchmarks/ledger/run.py --check benchmarks/ledger/baseline.json
    python3 benchmarks/ledger/run.py --workload serve-mixed --seed 3 --seconds 15 --trace 0

(``PYTHONPATH=src python -m benchmarks.ledger`` is the same command.)

Each workload runs in fresh processes with every ``REPRO_*`` variable
removed from their environment: first set-up probes, then an untraced run
(``--trace 0``: the end-to-end metrics), then a traced run (``--trace 1``:
the per-layer split).  Every metric is printed with its unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any plan differs from the bottom-up reference, any request fails, or
``--check`` finds a work counter that changed.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Set-up samples per untraced run, after a discarded warm-up probe; the
#: median is reported.
SETUP_SAMPLES = 7
QUICK_SETUP_SAMPLES = 3
DEFAULT_SECONDS = 20.0
QUICK_SECONDS = 2.0
CHILD_TIMEOUT_S = 170.0


class RunFailed(RuntimeError):
    """A workload process crashed, hung, or printed no result."""


def child_env() -> dict[str, str]:
    """The environment of every workload process: ``REPRO_*`` switches
    (``REPRO_FASTPATH`` and friends) would silently change the measured
    path, and a fixed hash seed keeps set iteration repeatable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int, quick: bool,
          probe: bool = False) -> subprocess.Popen[str]:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if quick:
        command.append("--quick")
    if probe:
        command.append("--probe")
    return subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )


def _events(lines: list[str]) -> dict[str, dict[str, Any]]:
    events = {}
    for line in lines:
        if line.startswith("{"):
            event = json.loads(line)
            events[event["event"]] = event
    return events


def setup_sample(workload: str, seed: int, quick: bool) -> float:
    """Seconds from process start to the first timed call, input
    generation excluded."""
    started = time.perf_counter()
    proc = spawn(workload, seed, 0.0, 0, quick, probe=True)
    try:
        assert proc.stdout is not None
        ready_at = None
        lines = []
        for line in proc.stdout:
            lines.append(line)
            if ready_at is None and '"ready"' in line:
                ready_at = time.perf_counter()
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    events = _events(lines)
    if proc.returncode != 0 or ready_at is None or "ready" not in events:
        raise RunFailed(f"{workload}: set-up probe failed")
    return ready_at - started - float(events["ready"]["gen_s"])


def setup_seconds(workload: str, seed: int, quick: bool) -> float:
    """Median set-up time of several probes, each scaled to host pace by
    all-CPU kernel samples taken right before and after it (a probe may
    run on any CPU).  A first, discarded probe compiles bytecode and
    warms the file cache, which a fresh checkout would otherwise charge
    to one sample."""
    import pace

    setup_sample(workload, seed, quick)
    paced = pace.Pace(all_cpus=True)
    samples = []
    for _ in range(QUICK_SETUP_SAMPLES if quick else SETUP_SAMPLES):
        wall = setup_sample(workload, seed, quick)
        paced.sample()
        samples.append(wall * paced.factor(paced.segment - 1))
    return statistics.median(samples)


def measure(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict[str, Any]:
    proc = spawn(workload, seed, seconds, trace, quick)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunFailed(f"{workload}: no result within {CHILD_TIMEOUT_S:.0f} s") from None
    events = _events(out.splitlines())
    if proc.returncode != 0 or "result" not in events:
        raise RunFailed(f"{workload}: exited {proc.returncode} without a result")
    return events["result"]


def check_plans(workload: Any, seed: int, costs: dict[str, float], write: bool) -> int:
    """Plans whose cost differs from the bottom-up reference."""
    import inputs
    import oracle

    if isinstance(workload, inputs.ServeWorkload):
        hot = {item.qid: item.query for item in inputs.hot_queries(workload, seed)}
        queries = {
            qid: hot[qid] if qid in hot
            else inputs.fresh_query(workload, seed, int(qid[1:])).query
            for qid in costs
        }
    else:
        queries = {
            item.qid: item.query
            for item in inputs.optimizer_queries(workload, seed)
            if item.qid in costs
        }
    expected = oracle.reference_costs(
        workload.name, workload.oracle, seed, repr(workload), queries, write=write
    )
    bad = oracle.mismatches(expected, costs)
    for qid in bad:
        print(f"# {workload.name}: {qid} cost {costs[qid]!r} != reference "
              f"{expected[qid]!r}", file=sys.stderr)
    return len(bad)


def run_one(name: str, seed: int, seconds: float, trace: int, quick: bool,
            write_expected: bool) -> dict[str, Any]:
    """One run of one workload: its metrics and its failure count."""
    import inputs
    import metrics

    workload = inputs.WORKLOADS[name]
    setup = 0.0 if trace else setup_seconds(name, seed, quick)
    result = measure(name, seed, seconds, trace, quick)
    failed = result["failed"] + result["mismatched"]
    failed += check_plans(workload, seed, result["costs"], write_expected)
    if trace:
        values = metrics.per_layer(result)
    else:
        values = metrics.end_to_end(result, setup)
    return {
        "workload": name,
        "trace": trace,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": values,
    }


def environment() -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "numpy": find_spec("numpy") is not None,
    }


def _specs() -> dict[str, Any]:
    import metrics

    return {m.name: m for m in (*metrics.END_TO_END, *metrics.PER_LAYER)}


def print_run(run: dict[str, Any]) -> None:
    specs = _specs()
    mode = "traced" if run["trace"] else "untraced"
    print(f"== {run['workload']} ({mode}): {run['attempted']} attempted, "
          f"{run['failed']} failed")
    for name, value in run["metrics"].items():
        spec = specs[name]
        tag = " [exact]" if spec.exact else ""
        print(f"  {name:36s} {value:14.6g} {spec.unit}{tag}")


def check_baseline(path: Path, seed: int, quick: bool, runs: list[dict[str, Any]]) -> int:
    """Exact counters that differ from a recorded run of the same seed."""
    import metrics

    exact = [m.name for m in metrics.PER_LAYER if m.exact]
    recorded = [
        r for r in json.loads(path.read_text())["runs"]
        if r["seed"] == seed and r["quick"] == quick
    ]
    if not recorded:
        print(f"# check: {path} has no run with seed {seed}; nothing compared")
        return 0
    drift = 0
    for run in runs:
        if not run["trace"]:
            continue
        for record in recorded:
            want = record["workloads"].get(run["workload"], {}).get("per_layer")
            if want is None:
                continue
            for name in exact:
                if want[name] != run["metrics"][name]:
                    drift += 1
                    print(f"# check: {run['workload']} {name} = "
                          f"{run['metrics'][name]!r}, recorded {want[name]!r}",
                          file=sys.stderr)
    print(f"# check: {len(recorded)} recorded run(s), {drift} counter(s) drifted")
    return drift


def append_record(path: Path, record: dict[str, Any]) -> None:
    ledger = json.loads(path.read_text()) if path.is_file() else {"runs": []}
    ledger["runs"].append(record)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default 11)")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="only the untraced (0) or traced (1) run")
    parser.add_argument("--quick", action="store_true",
                        help=f"10 queries, {QUICK_SECONDS:g} s runs: a smoke test")
    parser.add_argument("--check", type=Path, metavar="BASELINE",
                        help="fail if an exact counter differs from a recorded run")
    parser.add_argument("--record", type=Path, metavar="LEDGER",
                        help="append this run to a ledger file (e.g. baseline.json)")
    parser.add_argument("--write-expected", action="store_true",
                        help="store the default seed's reference costs in expected/")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no optimizer sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    seed = inputs.DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds or (QUICK_SECONDS if args.quick else DEFAULT_SECONDS)
    if args.workload is not None and args.workload not in inputs.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(inputs.WORKLOADS)}")
    names = [args.workload] if args.workload else list(inputs.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")

    runs = []
    try:
        for name in names:
            for trace in traces:
                run = run_one(name, seed, seconds, trace, args.quick, args.write_expected)
                print_run(run)
                runs.append(run)
    except RunFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    failed = sum(run["failed"] for run in runs)
    drift = check_baseline(args.check, seed, args.quick, runs) if args.check else 0
    if args.record:
        workloads: dict[str, dict[str, Any]] = {}
        for run in runs:
            key = "per_layer" if run["trace"] else "end_to_end"
            workloads.setdefault(run["workload"], {})[key] = run["metrics"]
        append_record(args.record, {
            "seed": seed, "seconds": seconds, "quick": args.quick, "env": env,
            "failed": failed, "workloads": workloads,
        })
    specs = _specs()
    values = {
        (name if len(runs) == 1 else f"{run['workload']}/{name}"):
            {"value": value, "unit": specs[name].unit}
        for run in runs for name, value in run["metrics"].items()
    }
    print(json.dumps({
        "correct": failed == 0 and drift == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": values,
    }))
    return 0 if failed == 0 and drift == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
