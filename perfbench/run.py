#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds `perfbench` (a package of its
own, see Cargo.toml) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload single-threaded with the repository's
environment knobs removed, and prints a stamp line followed, as the last
line, by the result object. Traced runs also write their span ledger to
`<target dir>/perfbench-spans/`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# Environment knobs the repository's binaries read. The benchmark pins
# its own baseline, so none of them may leak into a measured run.
KNOB_PREFIXES = ("SIM_", "BENCH_", "SERVE_", "THROUGHPUT_", "OMP_", "FUZZ_", "SOAK_")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the sources the benchmark builds, standing in for a
    commit id where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            rel = f.relative_to(ROOT)
            if f.is_file() and not any(p == "target" or p.startswith(".") for p in rel.parts):
                h.update(str(rel).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return r.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "crates").is_dir():
        die("the repository's crates/ are not here; nothing to benchmark")

    env = {k: v for k, v in os.environ.items() if not k.startswith(KNOB_PREFIXES)}
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        die("build failed")

    cmd = [str(target / "release" / "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        spans = target / "perfbench-spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{a.workload}-seed{a.seed}.json")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        die(f"{a.workload} exited with code {run.returncode}")
    host = json.loads(lines[-2].removeprefix("perfbench-host "))
    result = json.loads(lines[-1])

    declared = spec["per_layer" if a.trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        die(f"reported metrics {got} do not match BENCHMARK.json {want}")

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, env=env)
    stamp = dict(host, rustc=rustc.stdout.strip(), git_commit=git_commit(),
                 source_digest=source_digest(), seconds=a.seconds, trace=int(a.trace))
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
