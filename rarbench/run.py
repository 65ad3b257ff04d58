#!/usr/bin/env python3
"""Build and run the RAR setup benchmark.

    python3 rarbench/run.py --workload hop8_fresh|tunnel_churn|bbd_mixed \\
        --seed N --seconds S --trace 0|1
    python3 rarbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark and the repository's libraries into .bench_build/rarbench (a few
minutes); later runs only check that the build is current. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
"""
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rarbench")
RUN_DIR = os.path.join(ROOT, ".rarbench_run")
# The benchmark's own watchdog abandons a run at 170 s; this one is the
# last resort if the process stops responding altogether.
RUN_TIMEOUT_S = 178


def build_env():
    env = dict(os.environ)
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # compiler temporaries stay inside the checkout
    return env


def build():
    env = build_env()
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr, env=env) == 0


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def run(args):
    binary = os.path.join(BUILD, "rarbench")
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=build_env(),
                            preexec_fn=os.setpgrp)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # Kill the benchmark and its forked daemon (one process group),
        # wait until none is left, and remove any socket they left behind.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10
        while group_alive(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        if os.path.isdir(RUN_DIR):
            for name in os.listdir(RUN_DIR):
                if name.endswith(".sock"):
                    os.unlink(os.path.join(RUN_DIR, name))
        print("rarbench: run timed out and was killed", file=sys.stderr)
        return 124


def main():
    if not build():
        print("rarbench: build failed", file=sys.stderr)
        return 1
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
