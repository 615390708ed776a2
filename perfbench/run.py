#!/usr/bin/env python3
"""Build and run the XCVerifier fixed-work benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe with dune into perfbench/out/build (the dune
cache is off; every scratch file stays under perfbench/out/), runs it, and
passes its output through. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero, printing no
result, when the verifier's sources are not there or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
BUILD = os.path.join(OUT, "build")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["table1", "pbe-ec1", "service-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    for need in ("dune-project", os.path.join("lib", "core", "verify.ml"),
                 os.path.join("lib", "service", "engine.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a checkout of the verifier: %s is missing" % need)

    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "DUNE_CACHE": "disabled",
        "XDG_CACHE_HOME": os.path.join(OUT, "cache"),
        "TMPDIR": tmp,
    })
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "--build-dir", BUILD, "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT, "--reference-dir", os.path.join(HERE, "reference")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
