#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload wan-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare RESULTS_A RESULTS_B

The first form builds the benchmark (perfbench/, a Go module of its own)
and cmd/lyserve from source into .bench_build/, with every Go cache inside
the checkout, then runs the benchmark with the given arguments. The last
line it prints is the JSON result. The second form compares two sets of
result documents (see compare.py).
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "xdg")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOWORK"] = "off"
    env["GOENV"] = "off"
    return env


def build(env):
    bindir = os.path.join(BUILD, "bin")
    steps = [
        (HERE, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
        (ROOT, ["go", "build", "-o", os.path.join(bindir, "lyserve"), "./cmd/lyserve"]),
    ]
    for cwd, cmd in steps:
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return bindir


def commit():
    """The git commit of the checkout, when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return ""
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """SHA-256 over the Go sources and module files the binaries build from."""
    h = hashlib.sha256()
    paths = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for f in filenames:
            if f.endswith(".go") or f in ("go.mod", "go.sum"):
                paths.append(os.path.relpath(os.path.join(dirpath, f), ROOT))
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(os.path.join(ROOT, p), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main():
    args = sys.argv[1:]
    if args and args[0] == "compare":
        sys.path.insert(0, HERE)
        import compare
        sys.exit(compare.main(args[1:]))
    os.chdir(ROOT)
    env = go_env()
    bindir = build(env)
    exe = os.path.join(bindir, "perfbench")
    argv = [exe] + args + ["--lyserve", os.path.join(bindir, "lyserve"),
                           "--commit", commit(), "--source-digest", source_digest()]
    os.execve(exe, argv, env)


if __name__ == "__main__":
    main()
