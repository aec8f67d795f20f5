#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compact --seed 1 --seconds 15 --trace 0

Every file the build and the run write goes under .bench_build/ at the
repository root (Go build cache, binary, scratch containers, spans and
the runs.jsonl log). The last line of standard output is the result
JSON. Exits non-zero, without a result, when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def revision():
    """The git revision, or a hash of the Go sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def go_binary():
    found = shutil.which("go")
    if found:
        return found
    for cand in ("/usr/local/go/bin/go", "/usr/lib/go/bin/go"):
        if os.access(cand, os.X_OK):
            return cand
    sys.exit("perfbench: go toolchain not found")


def main():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        PERFBENCH_REV=revision(),
    )
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run([go_binary(), "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.exit("perfbench: build failed")
    args = sys.argv[1:] + ["--dir", os.path.join(BUILD, "perfbench")]
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
