"""Benchmark of infopower: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload solvers --seed 1 --seconds 55 --trace 0

Runs whole rounds of the workload's operations for --seconds (a round starts
only if the mean round so far still fits),
checks every output against references computed apart from the program, and
prints one JSON object as the last line of stdout:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
An operation that raises makes the run incorrect, like a wrong output.

--trace 0 reports the end-to-end metrics: setup_s (median of several set-ups,
each in a fresh interpreter, spread evenly over the run), solve_s (mean wall
time of one round) and peak_rss_mb. --trace 1 reports the per-layer metrics:
half the time runs untraced, then the same rounds run again with the layer
tracer installed. Run records are written under .perfbench_out/ in the
checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("solvers", "io-cli")
SETUP_REPEATS = 15
HIT_TOL = 1e-6
MB = 2**20


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def check_program():
    if not (SRC / "infopower" / "__init__.py").is_file():
        raise SystemExit(f"error: no infopower sources under {SRC}")


def import_program():
    """Import infopower from this checkout's src/, never from elsewhere."""
    check_program()
    sys.path.insert(0, str(SRC))
    import infopower

    if Path(infopower.__file__).resolve().parent != SRC / "infopower":
        raise SystemExit(f"error: imported infopower from {infopower.__file__}")
    return infopower


def setup_probe(workload, seed):
    """One set-up time, measured in a fresh interpreter."""
    workdir = make_workdir("probe")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
    finally:
        shutil.rmtree(workdir)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def make_workdir(tag):
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{tag}-{os.getpid()}"
    path.mkdir(exist_ok=True)
    return path


class Phase:
    """Whole rounds run back to back for a fixed time, and what they did."""

    def __init__(self):
        self.rounds = []  # one dict per round
        self.attempted = 0
        self.failures = []  # operations that raised
        self.wrong = []  # outputs that failed their check
        self.setup_samples = []


def run_phase(workload, ctx, seed, seconds, probe=None):
    """Whole rounds for about `seconds`. With `probe`, SETUP_REPEATS set-up
    probes run between operations, untimed, the i-th once i/SETUP_REPEATS of
    `seconds` has passed, so that their median spans the host's slow and fast
    spells as the rounds do."""
    phase = Phase()
    setups = phase.setup_samples

    def run_due_probes(elapsed):
        while probe and len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(probe())

    start = time.perf_counter()
    r = 0
    while r == 0 or (time.perf_counter() - start) * (r + 1) / r <= seconds:
        rec = {"wall": 0.0, "cpu": 0.0, "faults": 0, "reports": [],
               "samples": 0, "sample_bytes": 0, "read": 0, "written": 0}
        for op in workload.ops(ctx, seed, r):
            run_due_probes(time.perf_counter() - start)
            phase.attempted += 1
            ru0, c0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.process_time(), time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, the run goes on
                phase.failures.append(f"round {r} {op.name}: {exc!r}")
                continue
            finally:
                t1, c1, ru1 = time.perf_counter(), time.process_time(), resource.getrusage(resource.RUSAGE_SELF)
                rec["wall"] += t1 - t0
                rec["cpu"] += c1 - c0
                rec["faults"] += ru1.ru_minflt - ru0.ru_minflt
            try:
                op.check(out)
            except Exception as exc:  # an output that cannot be checked is wrong too
                phase.wrong.append(f"round {r} {op.name}: {exc!r}")
            if hasattr(out, "iterations_per_start"):
                # family: "power" (see-saw) or "minent" (descent)
                rec["reports"].append((op.name.split("-")[0], out, t1 - t0))
            rec["samples"] = max(rec["samples"], op.samples)
            rec["sample_bytes"] = max(rec["sample_bytes"], op.samples * op.dim * 16)
            rec["read"] += op.read_bytes
            if hasattr(out, "stdout"):
                rec["written"] += len(out.stdout.encode())
        rec["starts"], rec["iterations"] = optimizer_counters(rec["reports"])[:2]
        phase.rounds.append(rec)
        r += 1
    run_due_probes(float("inf"))
    return phase


def optimizer_counters(entries):
    """(starts, iterations, converged starts, hits) over (family, report, wall) entries."""
    reports = [rep for _, rep, _ in entries]
    starts = sum(rep.starts for rep in reports)
    iterations = sum(sum(rep.iterations_per_start) for rep in reports)
    converged = sum(rep.converged_starts for rep in reports)
    hits = sum(
        sum(abs(v - rep.best_value) <= HIT_TOL for v in rep.values_per_start)
        for rep in reports
    )
    return starts, iterations, converged, hits


def ratio(part, whole):
    return part / whole if whole else 0.0


def ms_per_iteration(entries):
    iterations = optimizer_counters(entries)[1]
    return ratio(1000 * sum(wall for _, _, wall in entries), iterations)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(phase):
    # rounds differ in their seeds, so the mean is the estimate of one round's work
    solve = statistics.fmean(rec["wall"] for rec in phase.rounds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(statistics.median(phase.setup_samples), "s"),
        "solve_s": metric(solve, "s"),
        "peak_rss_mb": metric(peak_kib / 1024, "MB"),
    }


def per_layer_metrics(untraced, traced, tracer):
    from tracing import LAYERS

    n = len(traced.rounds)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = metric(tracer.calls[layer] / n, "count")
        out[f"{layer}.busy_s"] = metric(tracer.busy[layer] / n, "s")
        out[f"{layer}.self_s"] = metric(tracer.self_time[layer] / n, "s")

    # counts from the first round, which is the same in every run at one seed;
    # times per iteration over every untraced round
    first = untraced.rounds[0]
    every = [e for rec in untraced.rounds for e in rec["reports"]]
    starts, iterations, converged, hits = optimizer_counters(first["reports"])
    out["optimize.starts"] = metric(starts, "count")
    out["optimize.iterations"] = metric(iterations, "count")
    out["optimize.converged_ratio"] = metric(ratio(converged, starts), "ratio")
    out["optimize.hit_ratio"] = metric(ratio(hits, starts), "ratio")
    out["optimize.ms_per_iteration"] = metric(ms_per_iteration(every), "ms")
    for family in ("power", "minent"):
        mine = [e for e in first["reports"] if e[0] == family]
        starts, iterations, converged, _ = optimizer_counters(mine)
        out[f"optimize.{family}.iterations"] = metric(iterations, "count")
        out[f"optimize.{family}.converged_ratio"] = metric(ratio(converged, starts), "ratio")
        out[f"optimize.{family}.ms_per_iteration"] = metric(
            ms_per_iteration([e for e in every if e[0] == family]), "ms"
        )
    out["optimize.samples"] = metric(first["samples"], "count")
    out["optimize.sample_mb"] = metric(first["sample_bytes"] / MB, "MB")
    out["states.json_mb_read"] = metric(first["read"] / MB, "MB")
    out["cli.mb_written"] = metric(first["written"] / MB, "MB")

    m = len(untraced.rounds)
    cpu = sum(rec["cpu"] for rec in untraced.rounds) / m
    wall = sum(rec["wall"] for rec in untraced.rounds) / m
    out["process.cpu_s"] = metric(cpu, "s")
    out["process.wait_s"] = metric(wall - cpu, "s")
    out["process.minor_faults"] = metric(sum(rec["faults"] for rec in untraced.rounds) / m, "count")
    # the same rounds ran untraced and traced: compare them pairwise
    k = min(m, n)
    overhead = sum(
        b["wall"] - a["wall"] for a, b in zip(untraced.rounds[:k], traced.rounds[:k])
    ) / k
    out["trace.overhead_s"] = metric(overhead, "s")
    return out


def write_record(args, result, phases):
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "result": result,
        "setup_samples": phases[0].setup_samples,
        "rounds": [
            [{k: v for k, v in rec.items() if k != "reports"} for rec in phase.rounds]
            for phase in phases
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")


def summarise(phases, metrics):
    """The result line. No operation is meant to raise, so one that does makes
    the run incorrect: a call that fails fast must not read as a speed-up."""
    failures = [e for phase in phases for e in phase.failures]
    wrong = [e for phase in phases for e in phase.wrong]
    for line in failures + wrong:
        print(line, file=sys.stderr)
    return {
        "correct": not wrong and not failures,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    args = parse_args(argv)
    infopower = import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = make_workdir(args.workload)
    try:
        ctx, _ = workloads.setup(args.workload, args.seed, str(workdir))
        if args.trace == 0:
            phase = run_phase(
                workload, ctx, args.seed, args.seconds,
                probe=lambda: setup_probe(args.workload, args.seed),
            )
            phases = [phase]
            metrics = end_to_end_metrics(phase)
        else:
            from tracing import Tracer

            untraced = run_phase(workload, ctx, args.seed, args.seconds / 2)
            tracer = Tracer(infopower)
            tracer.install()
            try:
                traced = run_phase(workload, ctx, args.seed, args.seconds / 2)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            metrics = per_layer_metrics(untraced, traced, tracer)
    finally:
        shutil.rmtree(workdir)
    result = summarise(phases, metrics)
    write_record(args, result, phases)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
