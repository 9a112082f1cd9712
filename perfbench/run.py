#!/usr/bin/env python3
"""Build and run the summa-serve benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <told|prove|swap> --seed <n> \
        --seconds <s> --trace <0|1>

Builds `perfbench/` (its own Cargo package, depending on the
repository's crates by path) in release mode, then runs it. Cargo's
output goes to stderr; stdout carries the benchmark's report, whose
last line is one JSON object. The build directory is
`$CARGO_TARGET_DIR` when set, else `perfbench/target`; traced runs
write their spans under `<build dir>/perfbench-spans/`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
PACKAGE = ROOT / "perfbench"
# The repository crates the benchmark builds against.
REQUIRED = ["crates/serve/Cargo.toml", "crates/dl/Cargo.toml", "Cargo.toml"]


def main() -> int:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing or not (PACKAGE / "Cargo.toml").is_file():
        print(
            "perfbench: run from the root of a summa checkout; missing: "
            + ", ".join(missing or ["perfbench/Cargo.toml"]),
            file=sys.stderr,
        )
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR") or PACKAGE / "target")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(PACKAGE / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        timeout=840,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = target / "release" / "summa-perfbench"
    spans = target / "perfbench-spans"
    run = subprocess.run(
        [str(binary), *sys.argv[1:], "--out", str(spans)], env=env, timeout=175
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
