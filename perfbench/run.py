#!/usr/bin/env python3
"""Builds the odbgc end-to-end benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload oo7_replay --seed 1 --seconds 20 --trace 0

Workloads: oo7_replay, wire_closed. The benchmark binary is
built with cargo into $CARGO_TARGET_DIR (default: .bench_build), and its
set-up files go under that directory too. The last line of standard
output is the run's JSON result. The exit code is non-zero when the build
fails, the run fails, or an output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run measures for --seconds (at most 60), plus set-up and output checks.
RUN_TIMEOUT_S = 170
# Workloads whose threads block on sockets, and so wake idle CPUs per turn.
KEEP_AWAKE_WORKLOADS = {"wire_closed"}


def keep_awake():
    """Spins in the idle scheduling class until the parent process exits.

    Any other runnable thread preempts it at once; its only effect is that
    the CPU it runs on never idles."""
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    parent = os.getppid()
    while os.getppid() == parent:
        for _ in range(100_000):
            pass


def workload_arg(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--workload":
            return value
    return None


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "odbgc-perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    spinners = []
    if workload_arg(sys.argv[1:]) in KEEP_AWAKE_WORKLOADS:
        spinners = [subprocess.Popen([sys.executable, __file__, "--keep-awake"])
                    for _ in range(os.cpu_count() or 1)]
    try:
        run = subprocess.run([exe, *sys.argv[1:], "--work-dir", work_dir],
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait()
    return run.returncode


if __name__ == "__main__":
    if sys.argv[1:] == ["--keep-awake"]:
        keep_awake()
    else:
        sys.exit(main())
