"""Benchmark of ``ftsim run``: host time, set-up time and memory per workload.

Run it from the repository root, which must hold ``src/ftsim`` and
``scenarios/``::

    python3 perfbench/run.py --workload halo_chain --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates untraced passes with traced ones and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with per-pass samples, the simulated fingerprint and any failures, is also
written to ``.perfbench/``. See ``perfbench/NOTES.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from spans import Tracer

WORKLOADS = ("fixtures", "halo_chain", "master_worker")


def import_ftsim(root: Path):
    """Import ``ftsim`` from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "ftsim" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {src}/ftsim not found; run from the repository root")
    sys.path.insert(0, str(src))
    from ftsim import cli

    if Path(cli.__file__).resolve().parent != (src / "ftsim").resolve():
        raise SystemExit(f"perfbench: imported ftsim from {cli.__file__}, not from {src}")
    return cli


def write_scenarios(workload: str, seed: int, root: Path, work: Path) -> list[Path]:
    """The workload's scenario set as ``.scn`` files."""
    if workload == "fixtures":
        paths = sorted((root / "scenarios").glob("*.scn"))
        if not paths:
            raise SystemExit(f"perfbench: no fixtures under {root / 'scenarios'}")
        return paths
    if workload == "halo_chain":
        texts = {f"halo_chain-{seed}": workloads.halo_chain(seed)}
    else:
        texts = {
            f"master_worker-{seed}-{j}": workloads.master_worker(seed * 1000 + j)
            for j in range(workloads.MASTER_WORKER["batch"])
        }
    paths = []
    for stem, text in texts.items():
        path = work / f"{stem}.scn"
        path.write_text(text)
        paths.append(path)
    return paths


@dataclass
class Outcome:
    """What one ``ftsim run`` call left behind."""

    makespan: float | None = None
    reference_makespan: float | None = None
    nodes: int = 0
    simulate_entered: float | None = None


@dataclass
class Pass:
    run_s: float = 0.0
    setup_s: float = 0.0
    calls: int = 0
    layers: dict[str, tuple[float, int]] = field(default_factory=dict)


class Bench:
    """Runs passes of ``ftsim run`` over one scenario set and checks each call."""

    def __init__(self, cli, scenarios: list[Path], work: Path):
        self.cli = cli
        self.scenarios = scenarios
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.crashed = 0
        self.nondeterministic = 0
        self.digests: dict[str, str] = {}
        self.fingerprint: dict[str, dict] = {}
        self.outcome = Outcome()
        simulate = cli.simulate_detailed

        def observed_simulate(scenario):
            # the only hook active in untraced passes: one clock read per call
            self.outcome.simulate_entered = time.perf_counter()
            result = simulate(scenario)
            self.outcome.makespan = result.makespan
            self.outcome.reference_makespan = result.reference_makespan
            self.outcome.nodes = scenario.nodes
            return result

        cli.simulate_detailed = observed_simulate

    def call(self, scenario: Path) -> tuple[float, float]:
        """One ``ftsim run``; returns (run seconds, set-up seconds)."""
        report = self.work / f"{scenario.stem}.csv"
        trace = self.work / f"{scenario.stem}.trace"
        argv = ["run", str(scenario), "--report", str(report), "--trace", str(trace)]
        self.outcome = outcome = Outcome()
        error = None
        started = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        finished = time.perf_counter()
        self.attempted += 1
        self._check(scenario.stem, rc, error, outcome, report, trace)
        entered = outcome.simulate_entered or finished
        return finished - started, entered - started

    def _check(self, stem: str, rc, error, outcome: Outcome, report: Path, trace: Path) -> None:
        problems = []
        if error is not None or rc != 0:
            self.crashed += 1
            problems.append(error or f"exit code {rc}")
        else:
            report_bytes, trace_bytes = report.read_bytes(), trace.read_bytes()
            digest = hashlib.sha256(report_bytes + b"\0" + trace_bytes).hexdigest()
            first = self.digests.setdefault(stem, digest)
            if digest != first:
                self.nondeterministic += 1
                problems.append("report or trace bytes differ from the first identical call")
            problems += checks.never_extends(outcome.makespan, outcome.reference_makespan)
            trace_text = trace_bytes.decode()
            end = max(outcome.makespan, outcome.reference_makespan)
            problems += checks.states_tile(trace_text, outcome.nodes, end)
            if stem not in self.fingerprint:
                self.fingerprint[stem] = fingerprint(outcome, report_bytes, trace_text, digest)
        if problems:
            self.failed += 1
            self.failures.append(f"{stem}: {'; '.join(problems)}")

    def run_pass(self) -> Pass:
        result = Pass()
        for scenario in self.scenarios:
            run_s, setup_s = self.call(scenario)
            result.run_s += run_s
            result.setup_s += setup_s
            result.calls += 1
        return result

    def memory_pass(self) -> float:
        """``tracemalloc`` peak over one pass, in bytes of Python heap."""
        gc.collect()
        tracemalloc.start()
        try:
            self.run_pass()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def repeat_for(seconds: float, minimum: int, one_round) -> list:
    """Results of ``one_round`` until ``seconds`` have passed and at least
    ``minimum`` rounds ran (two calls per scenario check determinism)."""
    out = []
    started = time.perf_counter()
    while len(out) < minimum or time.perf_counter() - started < seconds:
        out.append(one_round())
    return out


def fingerprint(outcome: Outcome, report_bytes: bytes, trace_text: str, digest: str) -> dict:
    """Simulated results of one scenario; a speed-only change keeps them."""
    total = report_bytes.decode().splitlines()[-1].split(",")
    return {
        "simulate.makespan_s": outcome.makespan,
        "simulate.reference_makespan_s": outcome.reference_makespan,
        "simulate.messages": sum(1 for line in trace_text.splitlines() if line.startswith("C ")),
        "energy.saving_j": float(total[6]) if total[0] == "TOTAL" else None,
        "sha256": digest,
    }


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    passes = repeat_for(seconds, 2, bench.run_pass)
    peak = bench.memory_pass()
    run_s = [p.run_s for p in passes]
    setup_s = [p.setup_s for p in passes]
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_mem_mib": (peak / 2**20, "MiB"),
    }
    return metrics, {"run_s": run_s, "setup_s": setup_s}


class LayerProbe:
    """Installs the spans of one traced pass and the counters beside them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.estimate_args: list[tuple] = []
        self.estimates = 0
        self.cancelled = 0
        self.queues = 0
        self._queue = None

    def install(self, cli) -> None:
        from ftsim import simulate
        from ftsim.kernel import EventQueue
        from ftsim.pattern import CommPattern
        from ftsim.scenario import Scenario

        t = self.tracer
        t.patch(cli, "main", "cli")
        t.patch(cli, "load_scenario", "scenario.load")
        t.patch(cli, "simulate_detailed", "simulate")
        t.patch(cli, "write_trace", "report.trace")
        t.patch(cli, "write_report", "report.report")
        t.patch(Scenario, "validate", "scenario.validate")
        t.patch(CommPattern, "matching_op", "pattern.matching_op")
        t.patch(EventQueue, "schedule", "kernel.schedule", on_call=self._on_schedule)
        t.patch(EventQueue, "advance", "kernel.advance")
        t.patch(EventQueue, "cancel", "kernel.cancel", on_result=self._on_cancel)
        t.patch(simulate, "estimate_block_times", "cascade.estimate",
                on_call=self._on_estimate, on_result=self._on_estimates)
        t.patch(simulate, "node_best_plan", "energy.plan")

    def _on_schedule(self, queue, *args, **kwargs) -> None:
        if queue is not self._queue:
            self._queue = queue
            self.queues += 1

    def _on_cancel(self, cancelled: bool) -> None:
        self.cancelled += bool(cancelled)

    def _on_estimate(self, *args, **kwargs) -> None:
        self.estimate_args.append((args, kwargs))

    def _on_estimates(self, estimates) -> None:
        self.estimates += len(estimates)

    def uninstall(self) -> None:
        self.tracer.uninstall()
        self._queue = None


def cascade_recall(estimate_args: list[tuple], found: int) -> tuple[float, float]:
    """(mean resolved depth, estimates found ÷ estimates at exhaustive depth).

    Exhaustive depth is the most ops any process holds; called untraced.
    """
    from ftsim.cascade import DepthConfig
    from ftsim.simulate import estimate_block_times

    depths, oracle = [], 0
    for args, kwargs in estimate_args:
        pattern, failed, fail_time, depth = args[:4]
        depths.append(depth.depth)
        exhaustive = DepthConfig(max(len(ops) for ops in pattern.processes))
        oracle += len(estimate_block_times(pattern, failed, fail_time, exhaustive, *args[4:], **kwargs))
    recall = found / oracle if oracle else 1.0
    return statistics.mean(depths), recall


def per_layer(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    def one_round():
        untraced = bench.run_pass()
        probe = LayerProbe(Tracer())
        probe.install(bench.cli)
        try:
            traced = bench.run_pass()
        finally:
            probe.uninstall()
        traced.layers = probe.tracer.self_times()
        return untraced, traced, probe

    rounds = repeat_for(seconds, 1, one_round)
    untraced = statistics.median(u.run_s for u, _, _ in rounds)
    # the traced pass with the median run time supplies every layer figure
    ranked = sorted(rounds, key=lambda r: r[1].run_s)
    _, rep, probe = ranked[(len(ranked) - 1) // 2]
    layers = rep.layers
    probe.tracer.write(spans_path)

    def self_s(name: str) -> float:
        return layers.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return layers.get(name, (0.0, 0))[1]

    kernel = ("kernel.schedule", "kernel.advance", "kernel.cancel")
    inner = sum(total for name, (total, _) in layers.items() if name != "cli")
    events = calls("kernel.advance")
    scheduled = calls("kernel.schedule")
    depth, recall = cascade_recall(probe.estimate_args, probe.estimates)
    trace_records = trace_bytes = 0
    for scenario in bench.scenarios:
        path = bench.work / f"{scenario.stem}.trace"
        if path.exists():  # absent only when every call on it crashed
            data = path.read_bytes()
            trace_bytes += len(data)
            trace_records += data.count(b"\n") - 1
    metrics = {
        "traced_run_s": (rep.run_s, "s"),
        "cli.other_s": (rep.run_s - inner, "s"),
        "runs_per_pass": (rep.calls, "count"),
        "scenario.load_s": (self_s("scenario.load"), "s"),
        "scenario.validate_s": (self_s("scenario.validate"), "s"),
        "scenario.validate_calls": (calls("scenario.validate") / rep.calls, "calls/run"),
        "pattern.matching_op_s": (self_s("pattern.matching_op"), "s"),
        "pattern.matching_op_calls": (calls("pattern.matching_op"), "count"),
        "kernel.self_s": (sum(self_s(k) for k in kernel), "s"),
        "kernel.events": (events, "count"),
        "kernel.scheduled": (scheduled, "count"),
        "kernel.cancelled": (probe.cancelled, "count"),
        "kernel.queues": (probe.queues, "count"),
        "kernel.useful_ratio": (events / scheduled if scheduled else 0.0, "frac"),
        "simulate.self_s": (self_s("simulate"), "s"),
        "simulate.us_per_event": (self_s("simulate") / events * 1e6 if events else 0.0, "us"),
        "cascade.estimate_s": (self_s("cascade.estimate"), "s"),
        "cascade.estimates": (probe.estimates, "count"),
        "cascade.depth": (depth, "ops"),
        "cascade.recall": (recall, "frac"),
        "energy.plan_s": (self_s("energy.plan"), "s"),
        "energy.plans": (calls("energy.plan"), "count"),
        "report.trace_s": (self_s("report.trace"), "s"),
        "report.report_s": (self_s("report.report"), "s"),
        "report.trace_records": (trace_records, "count"),
        "report.trace_bytes": (trace_bytes, "B"),
        "trace_overhead_frac": ((rep.run_s - untraced) / untraced, "frac"),
    }
    samples = {
        "untraced_run_s": [u.run_s for u, _, _ in rounds],
        "traced_run_s": [t.run_s for _, t, _ in rounds],
    }
    return metrics, samples


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    cli = import_ftsim(root)
    out = root / ".perfbench"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        scenarios = write_scenarios(args.workload, args.seed, root, work)
        bench = Bench(cli, scenarios, work)
        if args.trace:
            spans_path = out / f"spans-{args.workload}.tsv"
            metrics, samples = per_layer(bench, args.seconds, spans_path)
        else:
            metrics, samples = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = bench.crashed == 0 and bench.nondeterministic == 0
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "mode": "single process, single thread",
        },
        "samples": samples,
        "failures": bench.failures,
        "fingerprint": bench.fingerprint,
        **result,
    }
    (out / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {bench.failed} of {bench.attempted} calls failed")
    for name, series in samples.items():
        print(f"{name}: {len(series)} samples, " + " ".join(f"{x:.4f}" for x in series))
    for failure in bench.failures[:10]:
        print(f"failed: {failure}")
    print(f"fingerprint: {json.dumps(bench.fingerprint, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
