#!/usr/bin/env python3
"""capefp end-to-end benchmark: build, generate inputs, run, report.

Builds e2e_bench from source (the capefp library from src/ plus this
directory), generates the workload's seeded inputs in a private scratch
directory under the build tree, runs the measured process and passes its
JSON result line through as the last line of standard output.

  python3 e2e_bench/run.py --workload rush_batch --seed 1 --seconds 25 --trace 0
  python3 e2e_bench/run.py --selftest
  python3 e2e_bench/run.py --probe dense5_exact|dense5_eps|dense15_eps

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under e2e_bench/.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rush_batch", "commute_mixed", "dense_eps")
# (case, expected exit code, text the rejection must contain): each wrong
# answer has to be caught by the check aimed at it.
SELFTEST_CASES = (
    ("none", 0, "accepted"),
    ("none_eps", 0, "accepted"),
    ("border_shift", 1, "outside [optimum, optimum + eps]"),
    ("node_swap", 1, "piece path takes -1"),
    ("gap", 1, "gap or overlap"),
    ("eps_band", 1, "sampled borders above optimum + eps"),
    ("eps_cap", 1, "more than the cap"),
)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2e_bench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            return None
    return os.path.join(out, "e2e_bench")


def scratch_dir():
    base = os.path.join(build_dir(), "scratch")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def call(binary, *args, timeout=170):
    return subprocess.run([binary, *args], timeout=timeout)


def generate(binary, workload, seed, directory, *extra):
    proc = call(binary, "gen", "--workload", workload, "--seed", str(seed),
                "--dir", directory, *extra)
    return proc.returncode == 0


def run_workload(binary, args):
    directory = scratch_dir()
    try:
        if not generate(binary, args.workload, args.seed, directory):
            return 1
        return call(binary, "run", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--dir", directory).returncode
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def selftest(binary):
    """Each wrong answer must be rejected (exit 1), each control accepted."""
    directory = scratch_dir()
    ok = True
    try:
        if not generate(binary, "rush_batch", 1, directory):
            return 1
        for case, expected, text in SELFTEST_CASES:
            proc = subprocess.run(
                [binary, "selftest", "--case", case, "--dir", directory],
                stdout=subprocess.PIPE, text=True, timeout=170)
            good = proc.returncode == expected and text in proc.stdout
            print(proc.stdout.strip())
            print(f"selftest {case}: exit {proc.returncode}, expected "
                  f"{expected}: {'ok' if good else 'WRONG'}")
            ok = ok and good
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


# Probes behind the FOUND lines in CHANGES.md: rush_batch's 07:00-10:00
# allFP list (1-3 mile pairs and commutes, seed 1) on the dense-profile
# network. name -> (bucket minutes, eps seconds, address-space limit MiB,
# queries).
PROBES = {
    "dense5_exact": (5, 0.0, 2000, 8),
    "dense5_eps": (5, 5.0, 3000, 8),
    "dense15_eps": (15, 5.0, 3000, 8),
}


def probe(binary, name):
    bucket, eps, limit_mb, queries = PROBES[name]
    directory = scratch_dir()
    try:
        if not generate(binary, "rush_batch", 1, directory, "--dense", "1",
                        "--bucket-minutes", str(bucket)):
            return 1
        rc = call(binary, "probe", "--dir", directory, "--eps", str(eps),
                  "--limit-mb", str(limit_mb), "--queries", str(queries),
                  timeout=900).returncode
        print(f"probe {name}: exit {rc}")
        return rc
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed query seconds (required with "
                        "--workload; BENCHMARK.json gives run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--probe", choices=sorted(PROBES))
    args = parser.parse_args()
    if not (args.workload or args.selftest or args.probe):
        parser.error("one of --workload, --selftest, --probe is required")
    if args.workload and args.seconds is None:
        parser.error("--workload needs --seconds")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("capefp sources (src/) not found next to "
                         "e2e_bench/\n")
        return 2
    binary = build()
    if binary is None:
        sys.stderr.write("build failed\n")
        return 2
    sys.stdout.flush()
    if args.selftest:
        return selftest(binary)
    if args.probe:
        return probe(binary, args.probe)
    return run_workload(binary, args)


if __name__ == "__main__":
    sys.exit(main())
