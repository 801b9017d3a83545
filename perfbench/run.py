#!/usr/bin/env python3
"""Builds and runs the condensa end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all --seed <n> --seconds <s>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from
src/) into .bench_build/, or into $CARGO_TARGET_DIR when that is set;
later calls rebuild only what changed. The last line of standard output
is the benchmark's JSON result. --all runs every workload of
BENCHMARK.json, untraced and then traced, and prints each result.
--selftest builds and runs the checker self-test instead
(tests/checks_test.cc). See perfbench/BENCHMARK.md.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src; run from a full checkout")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"cmake configure failed; see {log_path}")
        step = ["cmake", "--build", build_dir, "--target", target, "-j", "4"]
        if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            with open(log_path) as text:
                sys.stderr.write("".join(text.readlines()[-30:]))
            fail(f"build failed; see {log_path}")
    return os.path.join(build_dir, target)


def benchmark_spec():
    """BENCHMARK.json at the repository root, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    spec = benchmark_spec()
    if spec is None:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir)

    if argv == ["--selftest"]:
        binary = build(build_dir, "condbench_selftest")
        scratch = os.path.join(build_dir, "selftest")
        return subprocess.run([binary, scratch], cwd=ROOT).returncode

    if argv and argv[0] == "--all":
        spec = benchmark_spec()
        if spec is None:
            fail("--all needs BENCHMARK.json at the repository root")
        for workload in spec["workloads"]:
            for trace in ("0", "1"):
                print(f"### {workload['name']} --trace {trace}", flush=True)
                code = main(["--workload", workload["name"], *argv[1:],
                             "--trace", trace])
                if code != 0:
                    return code
        return 0

    trace = "0"
    for i, arg in enumerate(argv[:-1]):
        if arg == "--trace":
            trace = argv[i + 1]
    binary = build(build_dir, "condbench")
    work_dir = os.path.join(build_dir, "run")
    proc = subprocess.run([binary, *argv, "--work-dir", work_dir], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    out = proc.stdout
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("benchmark did not end with a JSON result line")
    want = expected_metrics(trace != "0")
    if want is not None and sorted(want) != sorted(result["metrics"]):
        sys.stderr.write(out)
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(want) ^ set(result['metrics']))}")
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
