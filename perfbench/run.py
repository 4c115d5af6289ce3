#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. Builds the library and the driver from source
into .bench_build/cmake (perfbench/CMakeLists.txt), generates the
workload's models into .bench_build/models/<driver hash> unless they are
cached there, and runs one measurement. The driver's last line on standard
output is the JSON result; build and generation output goes to standard
error. Traced runs write their spans to .bench_build/out/. See
perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
MODELS = os.path.join(BUILD, "models")
OUT = os.path.join(BUILD, "out")
WORKLOADS = ("resnet18_w1a2_b1", "vgg_w2a2_b1", "gateway_conv_attn")


def step(cmd, timeout):
    """Runs a set-up step with its output on stderr; exits on failure."""
    try:
        rc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: {cmd[0]} failed: {e}")
    if rc != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited with {rc}")


def model_dir(binary):
    """The model cache of this build of the driver.

    Models are keyed on a hash of the driver binary, which links the
    generation, calibration and serialization code, so a change to any of
    them makes the models anew. Caches of other builds are removed.
    """
    h = hashlib.sha256()
    with open(binary, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    key = h.hexdigest()[:16]
    for name in os.listdir(MODELS):
        if name != key:
            path = os.path.join(MODELS, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    path = os.path.join(MODELS, key)
    os.makedirs(path, exist_ok=True)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seconds is None):
        ap.error("--workload and --seconds are required")

    for d in (CMAKE_DIR, MODELS, OUT):
        os.makedirs(d, exist_ok=True)
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", CMAKE_DIR,
              "-DCMAKE_BUILD_TYPE=Release"], 120)
    step(["cmake", "--build", CMAKE_DIR, "-j", str(os.cpu_count() or 1)], 850)
    binary = os.path.join(CMAKE_DIR, "apnn_bench")

    if args.selftest:
        cmd = [binary, "selftest", "--out", OUT]
    else:
        models = model_dir(binary)
        step([binary, "gen", "--workload", args.workload, "--models", models],
             300)
        cmd = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--models", models, "--out", OUT]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=170).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the measurement did not finish in 170 s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
