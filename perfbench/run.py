#!/usr/bin/env python3
"""Run one workload of the FLB benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `flb` binary and the load
generator from source with dune, then runs the generator, which starts
the daemon and router processes it needs, measures for S seconds, checks
every answer and prints the metrics. The last line of standard output is
the result as one JSON object. Results with their host metadata, and the
spans of a traced run, are kept under `.perfbench/`.

Every process the run starts is in one process group, which is killed
and waited for before this script exits.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["repeat-direct", "unique-direct", "repeat-routed", "stream-unique", "execute"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
SOURCES = ["dune-project", "bin/flb_cli.ml", "lib", "perfbench/src/dune"]
TARGETS = ["./bin/flb_cli.exe", "./perfbench/src/main.exe"]
FLB = "_build/default/bin/flb_cli.exe"
GENERATOR = "_build/default/perfbench/src/main.exe"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def stop_group(proc):
    """Kill whatever is left of the run's process group and wait until it is gone."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    deadline = time.monotonic() + 10
    while group_alive(proc.pid) and time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(result, dict)
        and set(result) == {"correct", "attempted", "failed", "metrics"}
        and isinstance(result["attempted"], int)
        and result["attempted"] >= 1
    )


def on_sigterm(signum, frame):
    # Unwind through main's `finally`, which stops the process group.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        return fail("run from the root of a checkout; missing " + ", ".join(missing))
    dune = dune_command()
    if dune is None:
        return fail("dune is not installed")

    try:
        build = subprocess.run(
            dune + ["build", "--root", "."] + TARGETS,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return fail("build timed out")
    if build.returncode != 0:
        return fail("build failed")
    # Write the build's output back now, so that the disk writeback does
    # not compete with the measurement that follows.
    os.sync()

    out_dir = ".perfbench"
    os.makedirs(out_dir, exist_ok=True)
    command = [
        GENERATOR,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--flb", FLB,
        "--out", out_dir,
        "--git-rev", git_rev(),
    ]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run timed out")
    finally:
        stop_group(proc)

    lines = output.splitlines()
    if proc.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(output)
        return fail("generator exited with code %d and no result" % proc.returncode)
    sys.stdout.write(output)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
