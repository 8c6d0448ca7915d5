#!/usr/bin/env python3
"""Build and run the muppet end-to-end benchmark.

    python3 muppetbench/run.py --workload <mesh-cold|search-hard|daemon-stream>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the benchmark package
(muppetbench/Cargo.toml) and the daemon binary (muppet-cli) in release
mode into $CARGO_TARGET_DIR (default .bench_build), then runs the
benchmark; its last stdout line is the JSON result. Exits non-zero,
without a result, if the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["--bin", "muppet-cli"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target)).returncode:
            sys.exit("muppetbench: build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "none"
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates", "third_party", "muppetbench/src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "%s+src-%s" % (commit, h.hexdigest()[:12])


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build(target)
    binary = os.path.join(target, "release", "muppet-perfbench")
    cli = os.path.join(target, "release", "muppet-cli")
    args = [binary] + sys.argv[1:] + ["--cli", cli, "--commit", source_id()]
    sys.exit(subprocess.run(args, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
