#!/usr/bin/env python3
"""Build the program and play one benchmark workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds ../src and the harness with CMake (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
harness, and passes its output through: a readable summary, then, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list; the run fails if the
harness printed any other set. The harness writes its captured program
log, its spans and the program's trace under .bench_out/.

Exit status: the harness's (0 ok, 1 a correctness check failed), 2 when the
build fails, 3 when the output breaks the contract or the run times out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARNESS_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def build(build_dir: Path, env: dict[str, str]) -> Path | None:
    """Configure (once) and build; the harness path, or None on failure."""
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    log_path = build_dir / "perfbench-build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode:
                log.flush()
                tail = log_path.read_text(encoding="utf-8", errors="replace")[-4000:]
                print(f"perfbench: build failed ({' '.join(cmd)}):\n{tail}", file=sys.stderr)
                return None
    return build_dir / "perfbench_harness"


def expected_metrics(trace: bool) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    # Compiler and harness temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    harness = build(build_dir, env)
    if harness is None:
        return 2

    cmd = [str(harness), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(ROOT / ".bench_out")]
    # Own session, so a timeout takes the harness and its children down.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True, env=env) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return fail(3, f"harness exceeded {HARNESS_TIMEOUT_S} s")
    sys.stderr.write(stderr[-8000:])
    lines = stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        return fail(proc.returncode or 3, "harness printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return fail(3, "harness's last line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail(3, f"unexpected result keys {sorted(result)}")
    expected = expected_metrics(bool(args.trace))
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        missing = sorted(set(expected) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(expected))
        return fail(3, f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if not result["correct"]:
        return fail(1, "a correctness check failed (see above)")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
