#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the workspace's release `sweep` and `sweep_worker` binaries and the
`perfbench` package into $CARGO_TARGET_DIR (default: `.bench_build` at the
repository root), then runs `perfbench` with the same arguments from the
repository root.  Build output goes to stderr, so standard output carries
only the benchmark's own lines; its last line is the result object.  The
exit code is the benchmark's.  See perfbench/README.md.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "sweep").is_dir():
        print("perfbench: the workspace sources are missing; run from a full checkout",
              file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for args in (["-p", "sweep", "--bins"], ["--manifest-path", str(HERE / "Cargo.toml")]):
        built = subprocess.run(cargo + args, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: `{' '.join(cargo + args)}` failed", file=sys.stderr)
            return built.returncode
    exe = target / "release" / "perfbench"
    return subprocess.run([str(exe), *sys.argv[1:]], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
