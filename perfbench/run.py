#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload list-read --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune from the source tree that holds this
file, then runs it with the given arguments.  The benchmark's stdout is
passed through; its last line is the JSON result.  Exits non-zero when the
build fails, the benchmark fails or times out, or an integrity check is
violated.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def source_rev(env):
    # Provenance only.  The ceiling stops git from reporting an enclosing
    # repository when this tree is a plain export.
    env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    # Keep every build artefact inside the tree: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s" % ROOT, file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet",
         "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [EXE] + sys.argv[1:] + ["--rev", source_rev(env)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
