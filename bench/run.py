"""Run one workload of the caggnet benchmark, or all of them.

    python3 bench/run.py --workload train-cagg-32 --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --out results.json

A run generates its inputs from --seed, then runs passes of the workload
back to back for --seconds, times set-up in a fresh interpreter several
times over the run, and checks every pass's outputs. With --trace 0 the
last line of standard output is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run,
which alternates untraced and traced passes. Lines before it, starting
with '#', record the environment and the status of every check.

The program is imported from the src/ directory beside bench/, never
from an installed copy; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from caggbench import catalog, env

env.pin_threads()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
MIN_SETUPS = 5
SETUP_SAMPLES = 15
MIN_PASSES = 2
UNITS = {name: unit for name, unit, *_ in catalog.END_TO_END + tuple(catalog.PER_LAYER)}


def setup_once(name: str, seed: int, workdir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "setup_child.py"), name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def measure(wl, prog, seconds: float, tracer, before_round=None):
    """Run passes back to back for about `seconds`: a new pass starts only
    when the median round so far still fits, and at least MIN_PASSES run.
    When tracing, each round is an untraced pass followed by a traced one
    that starts from the same state, and at least one round runs.
    `before_round` is called, untimed, at the start of every round with
    the seconds elapsed so far.

    Returns the pass times keyed by traced-ness, the check outcome and
    the first pass's result."""
    from caggbench.workloads import Outcome

    times = {False: [], True: []}
    outcome = Outcome()
    first = None
    modes = (False, True) if tracer is not None else (False,)
    t_start = time.perf_counter()
    rounds = []
    while True:
        t_round = time.perf_counter()
        if before_round is not None:
            before_round(t_round - t_start)
        args = {traced: wl.prepare(tracer if traced else None) for traced in modes}
        untraced = reference = None
        for traced in modes:
            with tracer.installed(prog) if traced else nullcontext():
                t0 = time.perf_counter()
                try:
                    result, error = wl.run(args[traced]), None
                except Exception:
                    result, error = None, traceback.format_exc()
                times[traced].append(time.perf_counter() - t0)
            if error is not None:
                print(error, file=sys.stderr)
                outcome.add(wl.ops_per_pass, wl.ops_per_pass,
                            "pass raised " + error.strip().splitlines()[-1])
                continue
            outcome.merge(wl.check(result))
            first = result if first is None else first
            if not traced:
                untraced = result
            if tracer is None:
                continue
            fingerprint = wl.fingerprint(result)
            if not traced:
                reference = fingerprint
            elif reference is not None:
                same = fingerprint == reference
                outcome.add(1, 0 if same else 1,
                            f"traced pass output identical to untraced: {'ok' if same else 'FAILED'}")
        if untraced is not None:
            wl.advance(untraced)
        now = time.perf_counter()
        rounds.append(now - t_round)
        enough = tracer is not None or len(rounds) >= MIN_PASSES
        if enough and now - t_start + statistics.median(rounds) > seconds:
            return times, outcome, first


def headline(cls, pass_s: float) -> tuple[str, float, str]:
    """The workload's user-facing figure: images per second, or suite
    seconds for gradcheck."""
    if cls.rate_name is None:
        return "gradcheck_s", pass_s, "s"
    return cls.rate_name, cls.images_per_pass / pass_s, "img/s"


def run_workload(args) -> int:
    threads = env.check_threads()
    from caggbench import tracing, workloads

    prog = workloads.import_program()
    if SRC.resolve() not in Path(prog.models.__file__).resolve().parents:
        print(f"error: caggnet was imported from {prog.models.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print("# environment " + json.dumps(env.environment(ROOT, args.seed, threads),
                                        sort_keys=True))
    cls = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tracer = tracing.Tracer() if args.trace else None
    try:
        cls.make_inputs(prog, args.seed, workdir)
        setup = []

        def time_setup(elapsed=None):
            # about SETUP_SAMPLES samples, spread evenly over the run
            if elapsed is None or elapsed >= len(setup) * args.seconds / SETUP_SAMPLES:
                setup.append(setup_once(args.workload, args.seed, workdir))

        if tracer is not None:
            with tracer.installed(prog):
                wl = cls(prog, args.seed, workdir)
            n_setup = len(tracer)
            times, outcome, first = measure(wl, prog, args.seconds, tracer)
        else:
            wl = cls(prog, args.seed, workdir)
            # set-up samples spread over the run, like the passes, so that
            # their median sees the same machine load as the passes
            times, outcome, first = measure(wl, prog, args.seconds, None, time_setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while tracer is None and len(setup) < MIN_SETUPS:
            time_setup()
        if first is not None:
            outcome.merge(wl.final_check(first))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pass_s = statistics.median(times[False])
    print(f"# {args.workload} seed {args.seed}: {len(times[False])} untraced, "
          f"{len(times[True])} traced passes; pass times "
          + " ".join(f"{t:.3f}" for t in times[False])
          + "".join(f" traced {t:.3f}" for t in times[True]))
    for note, count in Counter(outcome.notes).items():
        print(f"# check ({count}x) {note}")
    name, value, unit = headline(cls, pass_s)
    print(f"# {name} {value:.4f} {unit}")
    print(f"# error_rate {outcome.failed / max(outcome.attempted, 1):.4g} "
          f"({outcome.failed} failed / {outcome.attempted} attempted)")
    if tracer is None:
        metrics = {"pass_s": pass_s, "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
    else:
        overhead = statistics.median(times[True]) / pass_s - 1.0
        metrics = tracing.layer_metrics(tracer, tracer.summarize(0, n_setup),
                                        tracer.summarize(n_setup), len(times[True]),
                                        overhead)
        tracer.save(WORK / f"trace-{args.workload}.npz")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    from caggbench import workloads

    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    table = []
    ok = True
    for name, cls in workloads.WORKLOADS.items():
        entry = report["workloads"][name] = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(line for line in lines if line.startswith("#")))
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for line in lines:
                if line.startswith("# environment "):
                    report["environment"] = json.loads(line[len("# environment "):])
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                k: v["value"] for k, v in result["metrics"].items()}
            entry.setdefault("checks", []).extend(
                line[len("# check "):] for line in lines if line.startswith("# check "))
            entry.setdefault("attempted", 0)
            entry.setdefault("failed", 0)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
        e2e = entry.get("end_to_end")
        if e2e is None:
            continue
        metric, value, unit = headline(cls, e2e["pass_s"])
        rate = entry["failed"] / max(entry["attempted"], 1)
        table += [(name, metric, f"{value:.4f}", unit),
                  (name, "setup_s", f"{e2e['setup_s']:.4f}", "s"),
                  (name, "peak_rss_mb", f"{e2e['peak_rss_mb']:.1f}", "MB"),
                  (name, "error_rate", f"{rate:.4g}",
                   f"({entry['failed']}/{entry['attempted']}, checks "
                   f"{'ok' if entry['failed'] == 0 else 'FAILED'})")]
    print()
    for row in table:
        print("{:<15} {:<16} {:>12} {}".format(*row))
    if args.out is not None:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*catalog.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: write every result to this JSON file")
    args = p.parse_args(argv)
    if not (SRC / "caggnet" / "__init__.py").is_file():
        print(f"error: no caggnet package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
