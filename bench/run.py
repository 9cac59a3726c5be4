"""Benchmark of the atomchain CLI on the two shipped 205-atom chains.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload, seed 1, trace 0

Each CLI invocation runs in a fresh child process with BLAS pinned to one
thread.  A run makes two whole rounds of its workload, and more while
another round still fits in --seconds.  It checks the outputs against
bench/oracle.py and the method's invariants, and prints one JSON result as
the last line of stdout:
end-to-end metrics with --trace 0, per-layer metrics from spans with
--trace 1.  Outputs and traces go to .bench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import CHECKS, CONFIGS, THREADS, WORKLOADS, Invocation, Report  # noqa: E402

BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_LIMIT = 120.0


@dataclass
class Outcome:
    invocation: Invocation
    outdir: Path
    wall: float
    maxrss_mib: float
    code: int
    stdout: str
    spans: list | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_PINS})
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS MiB, exit code).

    A child still running after CHILD_LIMIT seconds is killed, so that a
    hung command cannot outlive the run.
    """
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=REPO, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_LIMIT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the child down too
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def invoke(inv: Invocation, outdir: Path, seed: int, trace: bool) -> Outcome:
    outdir.mkdir(parents=True)
    cli_argv = inv.argv(REPO, outdir, seed)
    log = outdir / "stdout.txt"
    if trace:
        spans_path = outdir / "spans.json"
        argv = [sys.executable, str(BENCH / "child.py"), "trace", str(spans_path), "--", *cli_argv]
    else:
        argv = [sys.executable, "-m", "atomchain", *cli_argv]
    wall, rss, code = spawn(argv, log)
    spans = None
    if trace and spans_path.exists():
        spans = json.loads(spans_path.read_text())
    return Outcome(inv, outdir, wall, rss, code, log.read_text(), spans)


def setup_time(config: str, scattering: bool, scratch: Path) -> float:
    argv = [sys.executable, str(BENCH / "child.py"), "setup", str(REPO / "configs" / f"{config}.cfg")]
    if scattering:
        argv.append("--scattering")
    wall, _, code = spawn(argv, scratch / "setup.txt")
    if code != 0:
        raise RuntimeError(f"set-up child for {config} exited with {code}")
    return wall


def tables(outdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
            if p.suffix in (".csv", ".json") and p.name not in ("manifest.json", "spans.json")}


def check_outcome(outcome: Outcome, seed: int):
    """Failed operations of one invocation and whole-table problems."""
    inv = outcome.invocation
    if outcome.code != 0 or "[FAIL]" in outcome.stdout:
        why = f"{inv.command} {inv.config} exited {outcome.code}: {outcome.stdout.strip()[-300:]}"
        return Report(failed=inv.ops, notes=[why])
    chain = oracle.read_chain(REPO / "configs" / f"{inv.config}.cfg")
    try:
        return CHECKS[inv.command](outcome.outdir, chain, inv.params, seed)
    except (OSError, ValueError, IndexError) as exc:
        return Report(failed=inv.ops, problems=[f"{inv.command} {inv.config}: {exc}"])


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(names, traced_rounds: list[list[Outcome]], untraced_walls: list[float], threads: int) -> dict:
    """Per-layer values from the spans of the traced rounds.

    `.s` is the median duration per call over every traced round, `.calls`,
    `.failed` and `.self_s` are per round; a name without a function part
    (`spectrum.self_s`) sums the self time of the whole module.
    """
    durations: dict[str, list[float]] = {}
    per_round = []
    for outcomes in traced_rounds:
        rnd = {"wall": 0.0, "uncovered": 0.0, "calls": {}, "self": {}, "failed": {},
               "bytes": 0, "kpoints": 0, "cell_time": 0.0, "ensemble_time": 0.0}
        for o in outcomes:
            rnd["wall"] += o.wall
            spans = o.spans or []
            own, covered = self_times(spans)
            rnd["uncovered"] += o.wall - covered
            for sid, name, start, end, parent, thread, failed, info in spans:
                durations.setdefault(name, []).append(end - start)
                rnd["calls"][name] = rnd["calls"].get(name, 0) + 1
                rnd["self"][name] = rnd["self"].get(name, 0.0) + own.get(sid, 0.0)
                rnd["failed"][name] = rnd["failed"].get(name, 0) + int(failed)
                if info:
                    rnd["bytes"] += info.get("bytes", 0)
                    rnd["kpoints"] += info.get("kpoints", 0)
                if name == "ensemble.run_cell":
                    rnd["cell_time"] += end - start
                elif name == "ensemble.run_ensemble":
                    rnd["ensemble_time"] += end - start
        per_round.append(rnd)
    # per-round quantities come from the median traced round, so that module
    # self times plus the uncovered remainder add up to its wall time
    rnd = sorted(per_round, key=lambda r: r["wall"])[(len(per_round) - 1) // 2]
    special = {
        "cli.import_s": median(durations.get("cli.import", [])),
        "dynamics.Propagator.init_s": median(durations.get("dynamics.Propagator.init", [])),
        "dynamics.Propagator.calls": rnd["calls"].get("dynamics.Propagator.init", 0),
        "cli.write_table.bytes": rnd["bytes"],
        "spectrum.bloch_bands.kpoints": rnd["kpoints"],
        "ensemble.pool_busy_ratio": (
            rnd["cell_time"] / (threads * rnd["ensemble_time"]) if rnd["ensemble_time"] else 0.0
        ),
        "trace.wall_s": rnd["wall"],
        "trace.untraced_wall_s": median(untraced_walls),
        "trace.overhead_s": median([r["wall"] for r in per_round]) - median(untraced_walls),
        "trace.uncovered_s": rnd["uncovered"],
    }
    values = {}
    for name in names:
        base, kind = name.rsplit(".", 1)
        if name in special:
            values[name] = special[name]
        elif kind == "calls":
            values[name] = rnd["calls"].get(base, 0)
        elif kind == "failed":
            values[name] = rnd["failed"].get(base, 0)
        elif kind == "self_s" and "." not in base:  # a whole module
            values[name] = sum(v for k, v in rnd["self"].items() if k.split(".", 1)[0] == base)
        elif kind == "self_s":
            values[name] = rnd["self"].get(base, 0.0)
        elif kind == "s":
            values[name] = median(durations.get(base, []))
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload_name]
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    run_dir = REPO / ".bench_runs" / f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    problems: list[str] = []

    attempted = failed = 0
    rounds: list[list[Outcome]] = []
    setups: list[float] = []
    rates: dict[str, list[float]] = {}  # per-invocation samples of each rate metric
    first_tables = None
    first_failed: list = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        index = len(rounds)
        traced = trace and index % 2 == 1
        outcomes = []
        for j, inv in enumerate(wl.round(seed)):
            outcomes.append(invoke(inv, run_dir / f"round{index}" / f"{j}-{inv.command}-{inv.config}", seed, traced))
        snapshot = [tables(o.outdir) for o in outcomes]
        if first_tables is None:
            reports = [check_outcome(o, seed) for o in outcomes]
            first_tables, first_failed = snapshot, [r.failed for r in reports]
            for o, r in zip(outcomes, reports):
                problems += r.problems
                for note in r.notes:
                    print(f"  check {o.invocation.command} {o.invocation.config}: {note}", file=sys.stderr)
            round_failed = sum(first_failed)
        elif snapshot == first_tables and all(o.code == 0 for o in outcomes):
            round_failed = sum(first_failed)
        else:
            problems.append(f"round {index} outputs differ from round 0")
            reports = [check_outcome(o, seed) for o in outcomes]
            problems += [p for r in reports for p in r.problems]
            round_failed = sum(r.failed for r in reports)
        attempted += sum(o.invocation.ops for o in outcomes)
        failed += round_failed
        rounds.append(outcomes)
        if not trace:
            # set-up and probe samples interleave with the rounds, so that a
            # slow spell of the machine touches every metric alike
            setups += [setup_time(c, wl.setup_scattering, run_dir / f"round{index}") for c in CONFIGS]
            for i, probe in enumerate(wl.probes(seed)):
                o = invoke(probe, run_dir / f"round{index}" / f"probe{i}", seed, trace=False)
                if o.code != 0 or "[FAIL]" in o.stdout:
                    problems.append(f"probe {probe.command} {probe.config} exited {o.code}")
                rates.setdefault(probe.rate, []).append(probe.ops / o.wall)
        shutil.rmtree(run_dir / f"round{index}")
        # whole rounds only: at least two, so that every rate has two samples,
        # and another only if a round as long as this one still ends in time
        now = time.perf_counter()
        if 2 * now - round_start - start > seconds and len(rounds) >= 2:
            break

    untraced = [r for i, r in enumerate(rounds) if not (trace and i % 2 == 1)]
    if trace:
        traced_rounds = [r for i, r in enumerate(rounds) if i % 2 == 1]
        walls = [sum(o.wall for o in r) for r in untraced]
        names = [m["name"] for m in spec["per_layer"]]
        metrics = layer_metrics(names, traced_rounds, walls, THREADS)
        spans_out = run_dir / "trace.json"
        spans_out.write_text(json.dumps([
            {"round": i, "command": o.invocation.command, "config": o.invocation.config,
             "wall": o.wall, "spans": o.spans}
            for i, r in enumerate(traced_rounds) for o in r]))
    else:
        for o in (o for r in untraced for o in r):
            rates.setdefault(o.invocation.rate, []).append(o.invocation.ops / o.wall)
        metrics = {rate: median(samples) for rate, samples in rates.items()}
        metrics["setup_s"] = median(setups)
        metrics["wall_s"] = median([sum(o.wall for o in r) for r in untraced])
        metrics["peak_rss_mib"] = max(o.maxrss_mib for r in untraced for o in r)
        names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [n for n in names if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    for p in problems:
        print(f"  problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [REPO / "src" / "atomchain" / "cli.py", REPO / "BENCHMARK.json"]
    needed += [REPO / "configs" / f"{c}.cfg" for c in ("directional", "reciprocal")]
    absent = [str(p.relative_to(REPO)) for p in needed if not p.is_file()]
    if absent:
        print(f"cannot benchmark: missing {', '.join(absent)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((REPO / "BENCHMARK.json").read_text())["run_seconds"]
    code = 0
    for name in names:
        result = run(name, args.seed, seconds, bool(args.trace))
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        print(json.dumps(result))
        if not result["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
