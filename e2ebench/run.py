#!/usr/bin/env python3
"""Build and run the end-to-end repair benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload table1 --seed 7 --seconds 10 --trace 0

The first run configures and builds e2ebench/ (the acr libraries from src/
plus the harness) in Release mode under $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only re-check the build. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is the benchmark's: 0 when every repair passed the correctness
gate, non-zero when the gate failed or the build did.
"""
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build(build_dir: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "e2ebench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "e2ebench"


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    try:
        binary = build(target / "e2ebench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"e2ebench: build failed: {error}", file=sys.stderr)
        return 1
    return subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
