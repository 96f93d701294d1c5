#!/usr/bin/env python3
"""Build and run the repository benchmark (the Go program in perfbench/).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload static --seed 1 --seconds 10 --trace 0

The program is compiled from the checkout's sources with every Go cache,
module path and configuration directory inside .bench_build/ at the
checkout root, so a run reads and writes nothing else of the machine but
the Go toolchain it reads. The arguments are passed through; the last
line of standard output is the benchmark's JSON result. A traced run
(--trace 1) also writes its spans to .bench_build/spans-<workload>-<seed>.jsonl.

Exits 2 without a result when the checkout holds no Go module to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# The build may compile the standard library into a cold cache; the run
# itself is bounded by its --seconds plus set-up and law checks.
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update(
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def arg_value(args, name):
    """Return the value of --name in args (either --name v or --name=v)."""
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    try:
        proc = subprocess.Popen(cmd, **kw)
    except OSError as e:
        print(f"perfbench: cannot start {cmd[0]}: {e}", file=sys.stderr)
        return 1
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} exceeded {timeout}s", file=sys.stderr)
        return 1


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the checkout root; nothing to build", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD, "home"), exist_ok=True)
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    rc = run(["go", "build", "-o", binary, "."], BUILD_TIMEOUT_S,
             cwd=HERE, env=env, stdout=sys.stderr)
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return rc or 1

    args = sys.argv[1:]
    if arg_value(args, "--trace") == "1" and arg_value(args, "--spans") is None:
        name = f"spans-{arg_value(args, '--workload')}-{arg_value(args, '--seed')}.jsonl"
        args = args + ["--spans", os.path.join(BUILD, name)]
    return run([binary] + args, RUN_TIMEOUT_S, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
