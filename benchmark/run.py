#!/usr/bin/env python3
"""Builds the benchmark package offline and runs it pinned to one CPU.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py all
    python3 benchmark/run.py aa

Why pinned: the service workloads run 3 to 7 threads, and on a 2-vCPU VM
their wall time depends on where the scheduler happens to put them (the
in-process closed loop settles, per process, into one of two regimes 3x
apart; the TCP one wanders between 70 and 230 ms per rep). On one CPU a rep
takes the sum of the CPU work of client and service, which is the thing a
change to the code can move, and it repeats. Child processes inherit the mask.

Why one malloc arena: glibc gives a new thread an arena of its own whenever
the existing ones are busy, so how many a service run ends up with depends on
thread timing; `peak_rss_mb` of identical runs of the TCP workload ranged
12 %. With MALLOC_ARENA_MAX=1 it ranges 2 %, and on one CPU there is no
allocator contention to lose (throughput did not move).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["MALLOC_ARENA_MAX"] = "1"
    exe = os.path.join(target, "release", "qccd-benchmark")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
