#!/usr/bin/env python3
"""Builds the cqa benchmark program from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_cold --seed 1 --seconds 10 --trace 0

The program (perfbench/src, built with perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench) prints one
JSON object; this script re-prints it as the last line of stdout after
checking its shape against BENCHMARK.json. Sockets and the disk cache live
in a per-run directory under the build directory, removed on every exit
path, and every process the run started is killed and waited for.

Exit status: 0 on a correct run, 1 when the program found a wrong answer
(the result line is still printed), 2 when the run could not complete.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUDGET_S = 178  # one run, set-up and checks included
FIRST_BUILD_BUDGET_S = 895  # a run that also builds the program


class RunError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        raise RunError(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def build(build_dir, deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RunError("cqa library sources (src/CMakeLists.txt) not found "
                       "beside perfbench/; run from the root of a checkout")
    if shutil.which("cmake") is None:
        raise RunError("cmake not found on PATH")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   deadline - time.monotonic())
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target", "cqa_perfbench",
                "-j", jobs], deadline - time.monotonic())
    binary = os.path.join(build_dir, "cqa_perfbench")
    if not os.access(binary, os.X_OK):
        raise RunError(f"cqa_perfbench missing after build: {binary}")
    return binary


def stop_group(proc):
    """Kills the program's process group (the fleet workers share it) and
    waits until every member is gone."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        if sig == signal.SIGTERM:
            try:
                proc.wait(timeout=3)
            except subprocess.TimeoutExpired:
                pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise RunError("processes of the run did not exit")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        raise RunError(f"cqa_perfbench printed no JSON result (last line: {line!r})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RunError(f"result has keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise RunError(f"metrics do not match BENCHMARK.json: missing "
                       f"{missing}, unexpected {extra}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RunError("result attempted no requests")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["exact_cold", "mc_poly"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    start = time.monotonic()
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    first_build = not os.path.isfile(os.path.join(build_dir, "cqa_perfbench"))
    deadline = start + (FIRST_BUILD_BUDGET_S if first_build else BUDGET_S)
    binary = build(build_dir, deadline)

    run_dir = tempfile.mkdtemp(prefix="run-", dir=build_root)
    trace_out = os.path.join(build_root, "traces",
                             f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmpdir", run_dir, "--trace-out", trace_out]
    proc = None
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                                cwd=ROOT, start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunError(f"{args.workload} did not finish within its "
                           f"{BUDGET_S} s budget")
        lines = [ln for ln in out.splitlines() if ln.strip()]
        if proc.returncode not in (0, 1) or not lines:
            raise RunError(f"cqa_perfbench exited with status {proc.returncode}")
        result = check_result(lines[-1], bool(args.trace))
        print(json.dumps(result), flush=True)
        return 0 if proc.returncode == 0 and result["correct"] else 1
    finally:
        if proc is not None:
            stop_group(proc)
        shutil.rmtree(run_dir, ignore_errors=True)


def on_signal(signum, _frame):
    raise RunError(f"interrupted by signal {signum}")


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    try:
        sys.exit(main())
    except RunError as e:
        log(str(e))
        sys.exit(2)
