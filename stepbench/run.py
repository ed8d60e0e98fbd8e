#!/usr/bin/env python3
"""Step benchmark: one workload per process, one JSON result line.

    python3 stepbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the repository root. Builds the library and the stepbench binary
(Release, CMake) into $CARGO_TARGET_DIR or .bench_build, runs the workload
with a hang watchdog and prints, as the last line of stdout,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced run with --trace 1. Exits 0
when every output check passed, 1 when one failed or no run completed, and
2 when the benchmark could not be built or run at all. See README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lm_serial", "lm_tesseract")


# A workload process that reports no progress for this long is hung: the
# longest operation between two progress ticks (the perf::autotune call of
# the phantom probe) takes a few seconds.
STALL_S = 20.0
# Seconds one invocation may spend in workload processes, so that it ends
# within 180 s even when it has to kill a hung process.
BUDGET_S = 165.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the Release binary; returns its path."""
    for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "--target", "stepbench",
                 "-j", str(os.cpu_count() or 1)]):
        # Build output goes to stderr: stdout carries only the results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return build_dir / "stepbench"


def run_workload(binary, args, out_path, env, budget):
    """Runs the binary until it exits, stops ticking for STALL_S or uses up
    `budget` seconds. Returns (exit code, or None when it was killed; last
    phase it announced; seconds taken)."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path)]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=subprocess.PIPE,
                            env=env, text=True, start_new_session=True)
    state = {"last": t0, "phase": "start"}

    def read_progress():
        for line in proc.stderr:
            state["last"] = time.monotonic()
            if line.startswith("stepbench: tick"):
                continue
            if line.startswith("stepbench: workload ") and " phase " in line:
                state["phase"] = line.rsplit(" phase ", 1)[1].strip()
            sys.stderr.write(line)

    reader = threading.Thread(target=read_progress)
    reader.start()
    code = None
    while code is None:
        try:
            code = proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            now = time.monotonic()
            if now - state["last"] > STALL_S or now - t0 > budget:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                break
    reader.join()
    return code, state["phase"], time.monotonic() - t0


def env_line(env):
    return ("stepbench env: nproc={} W={} backend={} kernel_variant={} "
            "build_type={} git_sha={}{}".format(
                env.get("host_cores"), env.get("workers"), env.get("backend"),
                env.get("kernel_variant"), env.get("build_type"),
                env.get("git_sha"), "-dirty" if env.get("git_dirty") else ""))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve()
    try:
        binary = build(build_dir)
    except (OSError, RuntimeError) as e:
        log(f"stepbench: cannot build the benchmark: {e}")
        return 2

    env = dict(os.environ)
    env["TESSERACT_WORKERS"] = str(min(os.cpu_count() or 1, 4))
    out_path = build_dir / f"result_{args.workload}_{args.seed}_{args.trace}.json"
    if out_path.exists():
        out_path.unlink()
    # A hung process is killed, reported and counted as a failed operation;
    # the workload then runs again while a whole run still fits the budget.
    deadline = time.monotonic() + BUDGET_S
    kills = 0
    while True:
        code, phase, took = run_workload(binary, args, out_path, env,
                                         deadline - time.monotonic())
        if code is not None:
            break
        kills += 1
        log(f"stepbench: FAILED: workload {args.workload} made no progress "
            f"in phase {phase}; killed after {took:.0f} s")
        if deadline - time.monotonic() < args.seconds + STALL_S:
            break

    if code == 2:
        log(f"stepbench: workload {args.workload} could not run")
        return 2  # usage error or non-Release build: no result at all
    if code not in (0, 1) or not out_path.exists():
        if code is not None:
            kills += 1
            log(f"stepbench: FAILED: workload {args.workload} ended with "
                f"status {code} in phase {phase}")
        print(json.dumps({"correct": False, "attempted": kills,
                          "failed": kills, "metrics": {}}))
        return 1

    doc = json.loads(out_path.read_text())
    for failure in doc["failures"]:
        log(f"stepbench: check failed: {failure}")
    # Every process counts as one checked operation; the killed ones failed.
    attempted = doc["attempted"] + 1 + kills
    failed = doc["failed"] + kills
    try:
        values = stats.per_layer(doc) if args.trace else stats.end_to_end(doc)
    except (KeyError, ValueError) as e:
        # Only a run whose checks already failed may lack a measurement.
        log(f"stepbench: FAILED: no metrics for {args.workload}: {e}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": max(failed, 1), "metrics": {}}))
        return 1
    metrics = {name: {"value": v, "unit": stats.unit_of(name)}
               for name, v in values.items()}

    print(env_line(doc["env"]))
    print(f"stepbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} steps={len(doc['step_s'])} "
          f"killed={kills} failed_frac={stats.ratio(failed, attempted):.6g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    # `correct` judges the outputs of the completed run; a killed process is
    # a failed operation, not a wrong answer.
    correct = doc["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
