#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark is built with dune into
the checkout's own _build directory (the shared dune cache is switched
off, so nothing outside the checkout is read or written), then the
runner executes one workload and passes its output through.  The last
line of stdout is the JSON result; its metric names are checked against
BENCHMARK.json before it is printed.  Any failure exits non-zero without
printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None):
    """Run cmd to completion (killing it on timeout); return (code, out, err)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        fail("%s timed out after %d s\n%s" % (cmd[0], timeout, err[-2000:]))
    return proc.returncode, out, err


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: not a checkout of the repository" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, out, err = run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"], BUILD_TIMEOUT_S, env
    )
    if code != 0 or not os.path.isfile(EXE):
        fail("build failed\n" + (out + err)[-4000:])


def revision():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    try:
        code, out, _ = run(["git", "rev-parse", "--show-toplevel", "HEAD"], 30)
        lines = out.split()
        if code == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--rev", revision(),
        "--nproc", str(nproc),
    ]
    code, out, err = run(cmd, RUN_TIMEOUT_S)
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        fail("workload exited with code %d" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a JSON result: %r" % lines[-1][:200])
    want = expected_metrics(args.trace == 1)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    print("\n".join(lines))


if __name__ == "__main__":
    main()
