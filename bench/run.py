"""Benchmark of the ``thermo`` command line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the sources under ``src/``
next to this directory.  A round runs each of the workload's ``thermo``
commands once, each in a fresh process with ``--jobs 1``; rounds repeat
until S seconds have passed, and there are at least two.  Before the
rounds, a few processes only set up (start, import, parse) so that
``setup_s`` has several samples.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics (medians over rounds):

    setup_s      start of a process to the start of its subcommand
    wall_s       wall time of one round of the workload's commands
    ops_per_s    operations of a round per second of its time after set-up
    peak_rss_mb  peak resident memory of the round's largest process

The times are scaled to a fixed reference pace: untraced processes sample
the machine's pace while they run, and each stretch of their wall time is
scaled by it (see ``pace.py``).  Bare wall times on a shared core spread
too widely to compare two versions of the program.

With ``--trace 1`` every untraced round is followed by a traced one (see
``spans.py``; one pair may be all) and the object holds the per-layer
metrics instead, plus ``trace.overhead_s``, the traced minus the
untraced round time (bare wall times, less the pace samples).  Either
way the outputs of every round are checked; ``correct`` is false when a
check fails or when two rounds (traced or not) wrote different bytes.
Outputs, spans and a detailed record go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pace
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"
SETUP_PROBES = 5
# Untraced rounds per run, at least: the metrics are medians over rounds.
MIN_ROUNDS = 2
# A run ends within this many seconds: no round starts that would end later.
BUDGET_S = 150.0


class BenchError(RuntimeError):
    """The benchmark could not run the program to the end."""


@dataclass
class Proc:
    """Timings and outputs of one finished ``thermo`` process."""

    start: float        # monotonic clock before the process was started
    ready: float        # ... when its subcommand was entered
    end: float          # ... after it had ended
    maxrss_kb: int
    output: workloads.Output
    trace_path: Path | None
    pace: dict | None   # pace samples (``pace.Sampler``); None when traced

    def bare(self) -> float:
        """Wall time less the time of the pace samples."""
        taken = (pace.removed_time(self.start, self.end, self.pace)
                 if self.pace else 0.0)
        return self.end - self.start - taken

    def scaled(self, setup: bool = False) -> float:
        """Wall time (set-up only or whole) at the reference pace."""
        end = self.ready if setup else self.end
        return pace.scaled_time(self.start, end, self.pace)


def run_process(cmd: workloads.Command, workdir: Path, deadline: float,
                trace: bool = False, setup_only: bool = False) -> Proc:
    workdir.mkdir(parents=True, exist_ok=True)
    report = workdir / f"{cmd.label}.report.json"
    trace_path = workdir / f"{cmd.label}.spans.json" if trace else None
    launcher = [sys.executable, str(BENCH / "launch.py"),
                "--report", str(report)]
    if trace:
        launcher += ["--trace", str(trace_path)]
    if setup_only:
        launcher.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path = workdir / f"{cmd.label}.stdout"
    err_path = workdir / f"{cmd.label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([*launcher, "--", *cmd.argv], cwd=workdir,
                                stdout=out, stderr=err, env=env)
        try:
            rc = proc.wait(timeout=max(deadline - t0, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{cmd.label} ran past the time limit")
        t1 = time.monotonic()
    if not report.exists():
        tail = err_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{cmd.label} exited with status {rc} before "
                         f"finishing:\n{tail}")
    rep = json.loads(report.read_text())
    csv_bytes = None
    if cmd.out is not None and not setup_only:
        csv_path = workdir / cmd.out
        if not csv_path.exists():
            raise BenchError(f"{cmd.label} wrote no {cmd.out}")
        csv_bytes = csv_path.read_bytes()
    output = workloads.Output(rc=rep["rc"], stdout=out_path.read_bytes(),
                              csv=csv_bytes)
    return Proc(t0, rep["ready"], t1, rep["maxrss_kb"], output, trace_path,
                rep.get("pace"))


def run_round(commands, workdir: Path, deadline: float, trace: bool):
    return [run_process(c, workdir, deadline, trace=trace) for c in commands]


def round_ops(workload, commands, procs) -> int:
    return sum(c.ops if c.ops is not None
               else workload.count_ops(p.output)
               for c, p in zip(commands, procs))


def traced_layer_metrics(commands, procs) -> dict[str, float]:
    """Per-layer metrics of one traced round: its commands' spans merged."""
    merged, counts = [], {}
    for p in procs:
        data = json.loads(p.trace_path.read_text())
        offset = len(merged)
        for s in data["spans"]:
            if s[3] >= 0:
                s[3] += offset
            merged.append(s)
        for k, v in data["counts"].items():
            counts[k] = counts.get(k, 0) + v
    writes_f = all(c.argv[0] != "scan" for c in commands)
    return spans.layer_metrics(merged, counts, f_columns_written=writes_f)


def same_outputs(a, b) -> bool:
    return all(p.output.stdout == q.output.stdout and p.output.csv == q.output.csv
               for p, q in zip(a, b))


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    commands = workload.commands(seed)
    rundir = RESULTS / f"{name}-seed{seed}{'-trace' if trace else ''}"
    shutil.rmtree(rundir, ignore_errors=True)
    start = time.monotonic()
    deadline = start + BUDGET_S

    probes = [run_process(commands[0], rundir / f"setup{i}", deadline,
                          setup_only=True)
              for i in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(run_round(commands, rundir / f"round{len(plain)}",
                               deadline, trace=False))
        if trace:
            traced.append(run_round(
                commands, rundir / f"round{len(traced)}-traced", deadline,
                trace=True))
        now = time.monotonic()
        enough = len(plain) >= (1 if trace else MIN_ROUNDS)
        if (enough and now - start >= seconds) or now + (now - t0) > deadline:
            break

    failures = []
    first = plain[0]
    if not all(same_outputs(first, r) for r in plain[1:]):
        failures.append("two untraced rounds wrote different outputs")
    if not all(same_outputs(first, r) for r in traced):
        failures.append("a traced round wrote other outputs than an "
                        "untraced one")
    outputs = {c.label: p.output for c, p in zip(commands, first)}
    refs: list = []
    failures += workload.check(commands, outputs, refs)

    ops = round_ops(workload, commands, first)
    failed = workload.failed_ops(outputs)
    n_rounds = len(plain) + len(traced)
    bare_walls = [sum(p.bare() for p in r) for r in plain]
    traced_walls = [sum(p.bare() for p in r) for r in traced]
    untraced = probes + [p for r in plain for p in r]
    kernel_times = pace.kernel_times([p.pace for p in untraced])
    walls = [sum(p.scaled() for p in r) for r in plain]
    setups = [p.scaled(setup=True) for p in untraced]
    if trace:
        per_round = [traced_layer_metrics(commands, r) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_round)
                   for k in spans.PER_LAYER if k != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(bare_walls))
        units = {k: u for k, (u, _) in spans.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(
                ops / sum(p.scaled() - p.scaled(setup=True) for p in r)
                for r in plain),
            "peak_rss_mb": statistics.median(
                max(p.maxrss_kb for p in r) / 1024.0 for r in plain),
        }
        units = {"setup_s": "s", "wall_s": "s", "ops_per_s": "ops/s",
                 "peak_rss_mb": "MB"}

    result = {
        "correct": not failures,
        "attempted": ops * n_rounds,
        "failed": failed * n_rounds,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    detail = dict(result, workload=name, seed=seed, seconds=seconds,
                  rounds=len(plain), traced_rounds=len(traced),
                  round_walls=walls, bare_round_walls=bare_walls,
                  traced_walls=traced_walls,
                  kernel_s_min=min(kernel_times),
                  kernel_s_median=statistics.median(kernel_times),
                  setup_samples=setups,
                  commands=[["thermo", *c.argv] for c in commands],
                  failures=failures, references=refs)
    rundir.mkdir(parents=True, exist_ok=True)
    (rundir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "artifact" / "cli.py").is_file():
        print(f"no program sources at {ROOT / 'src' / 'artifact'}",
              file=sys.stderr)
        return 2
    try:
        result = benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
