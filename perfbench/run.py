"""Benchmark of the `tm` command on three generated workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload chain|loop|fanout --seed N \
        --seconds S --trace 0|1

With `--trace 0` every `tm` command runs as a fresh `python -m tmkit.cli`
process on the repository's `src`, one at a time, in whole rounds that
fill at most `--seconds` (at least one round runs). Each round also runs
the fixed reference program `hostref.py` a few times. Each end-to-end
metric is the median wall time of its command, scaled by
`HOST_REF_S / median wall time of hostref.py`, so that the host's
drifting speed cancels. With `--trace 1` the layers are called
in-process instead and timed by spans (see `traced.py`).

Every output is checked against the reference the generator computes.
A failure listed under `known_failures` in `workloads.json` counts in
`failed` but keeps `correct` true; any other failure makes it false.
The last line of stdout is the JSON result.
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
import time

import gen
import hostref
from common import BENCH_DIR, CHECKS, SRC, known_failure, tm_env

#: runs of a command per round where more than one: the commands that
#: take a second or less repeat, so that they collect more samples
ROUND_REPS = {
    "chain": {"setup_s": 2, "fmt_s": 2, "dot_s": 2, "to_class_s": 2,
              "to_tm_s": 2},
    "loop": {"setup_s": 4, "check_s": 4, "fmt_s": 4, "dot_s": 4,
             "to_class_s": 4, "to_tm_s": 4},
    "fanout": {"setup_s": 2, "to_tm_s": 2},
}
#: runs of `hostref.py` per round
HOST_REF_RUNS = 4
#: wall time of `hostref.py` to which every timing is scaled: its typical
#: time on a 2-vCPU Xeon (Sapphire Rapids) virtual machine
HOST_REF_S = 0.2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.GENERATORS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_tm stops the running `tm` process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "tmkit" / "cli.py").is_file():
        print(f"error: no tmkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        # imported here: an end-to-end run never loads tmkit in-process
        import traced
        result = traced.run(args.workload, args.seed, args.seconds)
    else:
        work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            result = run_commands(args.workload, args.seed, args.seconds,
                                  work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def commands(wl, work):
    """(metric, tm arguments) for every timed command."""
    model, empty, classes = (work / "model.tm", work / "empty.tm",
                             work / "classes.json")
    model.write_text(wl.source, encoding="utf-8")
    empty.write_text("", encoding="utf-8")
    # to-tm reads the generator's class JSON, not to-class output
    classes.write_text(wl.class_json, encoding="utf-8")
    return [
        ("setup_s", ["check", str(empty)]),
        ("check_s", ["check", str(model)]),
        ("fmt_s", ["fmt", str(model)]),
        ("simulate_s", ["simulate", str(model), *wl.world_args()]),
        ("dot_s", ["dot", str(model), "--show-stores"]),
        ("to_class_s", ["to-class", str(model)]),
        ("to_tm_s", ["to-tm", str(classes)]),
    ]


def run_tm(argv, work, env):
    """Run one `tm` process to completion; return (wall s, exit code,
    stdout, stderr, max RSS in MB)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "tmkit.cli", *argv], cwd=SRC, env=env,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            usage.ru_maxrss / 1024)


def host_ref(env):
    """Run `hostref.py` once as a fresh process; return its wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "hostref.py")],
                          cwd=BENCH_DIR, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0 or proc.stdout.strip() != str(hostref.DIGEST):
        raise RuntimeError(f"hostref.py failed: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[:200]}")
    return wall


def round_schedule(workload, cmds):
    """The fixed list of (metric, argv) one round runs; None is a run of
    `hostref.py`. Repetitions of a command interleave with the others,
    and the reference runs are spread evenly over the round."""
    reps = ROUND_REPS[workload]
    tm_runs = [(metric, argv)
               for rep in range(max(reps.values(), default=1))
               for metric, argv in cmds if rep < reps.get(metric, 1)]
    schedule = []
    for i, item in enumerate(tm_runs):
        if i * HOST_REF_RUNS % len(tm_runs) < HOST_REF_RUNS:
            schedule.append(None)
        schedule.append(item)
    return schedule


def run_commands(workload, seed, seconds, work):
    wl = gen.build(workload, seed)
    cmds = commands(wl, work)
    env = tm_env()
    times = {metric: [] for metric, _ in cmds}
    rss = {metric: [] for metric, _ in cmds}
    refs = []
    tally = {"attempted": 0, "failed": 0, "unexpected": []}

    def run(metric, argv, counted=True):
        wall, code, out, err, maxrss = run_tm(argv, work, env)
        tally["attempted"] += counted
        if not CHECKS[metric](wl, code, out):
            tally["failed"] += counted
            if not known_failure(workload, metric, code, err):
                tally["unexpected"].append(
                    f"{metric}: exit {code}: {err.strip()[:200]}")
        return wall, maxrss

    # One untimed, uncounted run compiles the bytecode. Whole rounds then
    # run while one more fits before the deadline, so every run attempts
    # the same mix of commands and failed/attempted does not depend on
    # how many rounds fit.
    run(*cmds[0], counted=False)
    host_ref(env)
    schedule = round_schedule(workload, cmds)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for item in schedule:
            if item is None:
                refs.append(host_ref(env))
                continue
            wall, maxrss = run(*item)
            times[item[0]].append(wall)
            rss[item[0]].append(maxrss)
        rounds += 1
        now = time.perf_counter()
        if deadline - now < now - round_start:
            break

    # the host's speed drifts by tens of percent over minutes; scaling by
    # the reference program's median in this run cancels most of it
    scale = HOST_REF_S / statistics.median(refs)
    metrics = {metric: {"value": statistics.median(samples) * scale,
                        "unit": "s"}
               for metric, samples in times.items()}
    metrics["peak_rss_mb"] = {
        "value": max(statistics.median(v) for v in rss.values()),
        "unit": "MB"}
    print(f"workload {workload} seed {seed}: {rounds} rounds, "
          f"{tally['attempted']} commands, {tally['failed']} failed "
          f"(failed_ratio {tally['failed'] / tally['attempted']:.3f})")
    print(f"  hostref      median {statistics.median(refs):.4f} s  "
          f"n={len(refs)}  scale {scale:.4f}")
    for metric, samples in times.items():
        q1, _, q3 = statistics.quantiles(samples, n=4) \
            if len(samples) > 1 else samples * 3
        print(f"  {metric:<12} {metrics[metric]['value']:.4f} s  wall: "
              f"median {statistics.median(samples):.4f}  q1 {q1:.4f}  "
              f"q3 {q3:.4f}  n={len(samples)}")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    for line in tally["unexpected"][:10]:
        print(f"  UNEXPECTED {line}")
    return {"correct": not tally["unexpected"],
            "attempted": tally["attempted"], "failed": tally["failed"],
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
