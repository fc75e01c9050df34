#!/usr/bin/env python3
"""Build and run the host-time benchmark of the Proteus stack.

Run from the repository root:

    python3 perfbench/run.py --workload jit-compile --seed 1 --seconds 40 --trace 0

Builds perfbench/bench.exe with dune (the first build compiles the whole
stack from source), runs it, and passes its output through. The last
line of stdout is the JSON result. The benchmark writes only under
_build/ and .perfbench/ in the current directory, and checks that the
metric names it prints are exactly the ones BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("jit-compile", "hecbench-warm")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, env, capture):
    """Run cmd to completion; kill it (and wait) if it overruns."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "perfbench/bench.ml", "BENCHMARK.json"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a source checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    env = dict(os.environ)
    # keep dune's shared cache (outside the checkout) out of the build
    env["DUNE_CACHE"] = "disabled"
    code, _ = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        timeout=840,
        env=env,
        capture=False,
    )
    if code != 0:
        fail(f"build failed (dune exit {code})")

    code, out = run(
        [
            "_build/default/perfbench/bench.exe",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        timeout=170,
        env=env,
        capture=True,
    )
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if code != 0:
        fail(f"bench.exe exited with {code}")
    result = json.loads(lines[-1])
    printed = list(result["metrics"])
    if sorted(printed) != sorted(declared):
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
