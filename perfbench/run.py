#!/usr/bin/env python3
"""Builds the PACER benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pacer-r1 --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental. Every other argument is passed to the `pacerbench`
program, whose last line of standard output is the JSON result. Build
output goes to standard error. `--selftest` runs pacerbench's self-test
and then checks that BENCHMARK.json, when present, names exactly the
metrics pacerbench emits and only workloads it knows. `--all` runs every
workload pacerbench knows in turn (with the other arguments) and fails if
any of them fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    make = ["cmake", "--build", out, "-j", jobs, "--target", "pacerbench"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(out, "pacerbench")
    return binary if os.path.exists(binary) else None


def check_manifest(binary):
    """BENCHMARK.json and pacerbench must agree on every metric name."""
    manifest = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    if not os.path.exists(manifest):
        return True
    with open(manifest) as f:
        spec = json.load(f)
    listed = subprocess.run([binary, "--list-metrics"], capture_output=True,
                            text=True, check=False)
    emitted = json.loads(listed.stdout.strip().splitlines()[-1])
    ok = True
    for key in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[key]]
        have = [tuple(m) for m in emitted[key]]
        if sorted(want) != sorted(have):
            print(f"selftest: BENCHMARK.json {key} differs from pacerbench:"
                  f" only in manifest {sorted(set(want) - set(have))},"
                  f" only in pacerbench {sorted(set(have) - set(want))}",
                  file=sys.stderr)
            ok = False
    # pacerbench may run workloads the manifest leaves out (pacer-r100, see
    # README.md), but every listed one must exist.
    unknown = sorted(set(w["name"] for w in spec["workloads"])
                     - set(emitted["workloads"]))
    if unknown:
        print(f"selftest: BENCHMARK.json lists unknown workloads {unknown}",
              file=sys.stderr)
        ok = False
    return ok


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "--all" in args:
        args.remove("--all")
        names = json.loads(subprocess.run(
            [binary, "--list-metrics"], capture_output=True, text=True,
            check=False).stdout)["workloads"]
        codes = [subprocess.run([binary, "--workload", name] + args).returncode
                 for name in names]
        return max(codes)
    code = subprocess.run([binary] + args).returncode
    if code == 0 and "--selftest" in args and not check_manifest(binary):
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
