#!/usr/bin/env python3
"""Build the dimsim host-speed benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload grid-churn --seed 1 --seconds 15 --trace 0

Builds perfbench/ (which compiles the simulator from src/) into
.bench_build/perfbench, runs the harness from the checkout root and passes
its output through: the last line of standard output is the JSON result.
Any further arguments (--plant-fault, --fuzz-seeds START:COUNT,
--traffic-seed N) go to the harness unchanged. See README.md.
"""
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to the benchmark (src/CMakeLists.txt is missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True, stdout=sys.stderr)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def stop_group(pgid):
    """Kills whatever the harness left in its process group and waits for it."""
    if group_alive(pgid):
        os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")
    work_dir = os.path.join(ROOT, ".bench_build", "run", str(os.getpid()))
    cmd = [os.path.join(BUILD, "perfbench"), "--work-dir", work_dir] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    stop_group(proc.pid)
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
