#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload <mesh-gpu|roads-par|service-mix>
                             --seed <n> [--seconds <1..60>] [--trace <0|1>]

Run it from the root of the checkout.  The library and the benchmark are
compiled with CMake into $CARGO_TARGET_DIR (default .bench_build); the
build is incremental, so only the first run of a checkout compiles.  The
last line of standard output is the JSON summary; with --trace 1 the
Chrome trace is written under <build dir>/traces/.

Exit codes: 0 every output valid, 1 an output was invalid or the build
failed, 2 bad arguments.
"""
import os
import subprocess
import sys

WORKLOADS = ("mesh-gpu", "roads-par", "service-mix")
DEFAULT_SECONDS = "50"
HERE = os.path.dirname(os.path.abspath(__file__))


def usage(msg):
    print("perfbench: " + msg, file=sys.stderr)
    print("usage: python3 perfbench/run.py --workload "
          "<mesh-gpu|roads-par|service-mix> --seed <n> "
          "[--seconds <1..60>] [--trace <0|1>]", file=sys.stderr)
    sys.exit(2)


def whole(flag, value, lo, hi):
    if not value.isascii() or not value.isdigit():
        usage("%s: expected a whole number, got %r" % (flag, value))
    if not lo <= int(value) <= hi:
        usage("%s %s out of range [%d, %d]" % (flag, value, lo, hi))
    return str(int(value))


def parse(argv):
    args = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            usage("unknown argument %r" % flag)
        if flag in args:
            usage(flag + " given twice")
        if i + 1 >= len(argv):
            usage(flag + ": missing value")
        args[flag] = argv[i + 1]
        i += 2
    if "--workload" not in args or "--seed" not in args:
        usage("--workload and --seed are required")
    if args["--workload"] not in WORKLOADS:
        usage("unknown workload %r" % args["--workload"])
    args["--seed"] = whole("--seed", args["--seed"], 0, 2 ** 53)
    args["--seconds"] = whole("--seconds",
                              args.get("--seconds", DEFAULT_SECONDS), 1, 60)
    args["--trace"] = whole("--trace", args.get("--trace", "0"), 0, 1)
    return args


def build(build_dir):
    """Configures (once) and builds; returns the benchmark binary."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    configured = all(os.path.exists(os.path.join(build_dir, f))
                     for f in ("CMakeCache.txt", "Makefile"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(os.cpu_count() or 1), "--target", "perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                print("perfbench: build failed (log: %s)" % log_path,
                      file=sys.stderr)
                sys.exit(1)
    return os.path.join(build_dir, "perfbench")


def main():
    args = parse(sys.argv[1:])
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    exe = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [exe, "--workload", args["--workload"], "--seed", args["--seed"],
           "--seconds", args["--seconds"], "--trace", args["--trace"],
           "--trace-dir", trace_dir]
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
