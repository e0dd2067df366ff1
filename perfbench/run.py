#!/usr/bin/env python3
"""Build and run the decoder-stack benchmark.

    python3 perfbench/run.py --workload batch_q8 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds perfbench/ (the library targets it
needs, from ../src) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs one workload. Prints
ldpc_perfbench's context and metric lines, the result fingerprint, and as the
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 1 the spans go to <build dir>/traces/.

Exit codes: those of ldpc_perfbench (0 ok, 1 a correctness check failed),
2 for a usage or build problem. Nothing is printed as a result unless
ldpc_perfbench ran to the end.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_q8", "batch_fa4", "service_mix")
RUN_TIMEOUT_S = 170
# Fingerprint fields that make two results incomparable when they differ.
HOST_FIELDS = ("cpu_model", "nproc", "simd_tier", "int16_lanes", "int8_lanes",
               "LDPC_SIMD_TIER", "build_type", "compiler")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure (once) and build ldpc_perfbench; output goes to stderr."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.call(["which", "ninja"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL) == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", bdir, "--target", "ldpc_perfbench",
                        "-j", jobs], stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")
    return os.path.join(bdir, "ldpc_perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler(bdir):
    for path in glob.glob(os.path.join(bdir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)', text)
        ver = re.search(r'set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)', text)
        if cid and ver:
            return cid.group(1) + " " + ver.group(1)
    return "unknown"


def cache_value(bdir, key):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def revision():
    """git revision when the checkout is a repository; otherwise a digest
    of the sources the benchmark builds (src/ and perfbench/)."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources:" + digest.hexdigest()[:16]


def fingerprint(bdir, simd):
    fp = {"cpu_model": cpu_model(),
          "nproc": len(os.sched_getaffinity(0)),
          "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
          "compiler": compiler(bdir),
          "revision": revision()}
    fp.update(simd)
    return fp


def compare_with_previous(bdir, fp):
    """Record this fingerprint; say so when it differs from the last run's."""
    path = os.path.join(bdir, "last_fingerprint.json")
    try:
        with open(path) as f:
            previous = json.load(f)
    except (OSError, ValueError):
        previous = None
    with open(path, "w") as f:
        json.dump(fp, f, sort_keys=True)
    if previous is None:
        return None
    changed = [k for k in HOST_FIELDS if previous.get(k) != fp.get(k)]
    if not changed:
        return None
    return ("fingerprint differs from the previous run in this build directory "
            "(" + ", ".join(changed) + "): the results are not comparable")


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="corrupt one expected result (self-test: the "
                             "run must then fail)")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at " + os.path.join(ROOT, "src") +
             ": run from a full checkout")

    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.corrupt_expected:
        cmd += ["--corrupt-expected"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("ldpc_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("ldpc_perfbench exited %d without a result" % proc.returncode)
    result = json.loads(lines[-1])

    simd = {}
    for line in lines[:-1]:
        if line.startswith("fingerprint_simd "):
            simd = json.loads(line.split(" ", 1)[1])
        else:
            print(line)
    fp = fingerprint(bdir, simd)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    warning = compare_with_previous(bdir, fp)
    if warning:
        print("warning: " + warning)

    code = proc.returncode
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            print("error: metrics differ from BENCHMARK.json: missing %s, "
                  "unexpected %s" % (sorted(set(expected) - set(got)),
                                     sorted(set(got) - set(expected))))
            result["correct"] = False
            code = code or 1
    print(json.dumps(result), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
