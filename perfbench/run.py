#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fig09-heuristics|fig12-exact|serve-mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build/; result and span files go to <build>/results/. The
last line of standard output is the benchmark's JSON summary. The exit
status is non-zero when the build fails, a check fails, or the printed
metrics do not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir, targets):
    """Configures once, then builds `targets`; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_metrics(summary_line, trace):
    """The printed metrics must be exactly BENCHMARK.json's, with its units."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return
    spec = json.loads(spec_path.read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in json.loads(summary_line)["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no repository sources next to {BENCH_DIR.name}/; nothing to build")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir

    if args.self_test:
        build(build_dir, ["perfbench_selftest"])
        sys.exit(subprocess.run([str(build_dir / "perfbench_selftest")]).returncode)
    if not args.workload:
        fail("--workload is required")

    build(build_dir, ["perfbench"])
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", source_revision(),
               "--out-dir", str(build_dir / "results")]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode or 1)
    check_metrics(lines[-1], args.trace == 1)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
