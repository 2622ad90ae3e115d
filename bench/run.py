"""Benchmark for star-consensus: one workload per process, checked outputs.

    python3 bench/run.py --workload analysis --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads are ``analysis``, ``mc-tables`` and ``mc-large-star`` (see
workloads.py and README.md); ``all`` runs each in a process of its own and
prints every end-to-end metric of each.  A run first times the set-up
(interpreter start, imports and input generation) in a few short child
processes, then repeats the workload's timed pass, at least twice and then
while another pass still fits in ``--seconds``, checking every pass's
outputs.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones; with ``--trace 1`` passes alternate between
untraced and traced, and the metrics are the per-layer ones.  The full
report, with the environment record, is also written under ``.bench_out/``,
and a traced run writes its spans there as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("analysis", "mc-tables", "mc-large-star")
# Kept out of development: a gain is confirmed on this seed only after it
# was found on others (``--seed holdout``).
HOLDOUT_SEED = 914_127_553
SETUP_REPEATS = 5
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "fail_frac": "ratio", "table1_s": "s", "fig2_s": "s",
             "trials_per_s": "1/s"}


def pin_threads() -> str:
    """Pin BLAS to STAR_CONSENSUS_THREADS (default 1); before numpy loads."""
    threads = os.environ.get("STAR_CONSENSUS_THREADS") or "1"
    os.environ["STAR_CONSENSUS_THREADS"] = threads
    for var in THREAD_VARS:
        os.environ[var] = threads
    return threads


def parse_seed(text: str) -> int:
    if text == "holdout":
        return HOLDOUT_SEED
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=parse_seed, default=0,
                   help="workload seed, or 'holdout' for the held-out seed")
    p.add_argument("--seconds", type=int, default=30,
                   help="measuring time: two passes, then more while one fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(threads: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "star_consensus")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": int(threads), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "git_sha": sha, "src_sha256": digest.hexdigest()}


def time_setup(name: str, seed: int) -> list[float]:
    """Wall time of a fresh interpreter that imports the package and builds
    the workload's inputs, SETUP_REPEATS times."""
    code = (f"import sys; sys.path[:0] = [{SRC!r}, {BENCH!r}]; import workloads; "
            f"workloads.WORKLOADS[{name!r}]({seed!r}, {OUTDIR!r})")
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def run_workload(args, threads: str) -> dict:
    sys.path.insert(0, SRC)
    import workloads
    import spans

    setup = time_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUTDIR)
    tally = wl.prepare()
    tracer = spans.Tracer() if args.trace else None

    plain, traced = [], []  # per-pass timing dicts
    layers, span_dump = [], []
    start = time.perf_counter()
    while True:
        # untraced: at least MIN_PASSES; traced: at least one of each kind
        use_trace = tracer is not None and len(traced) < len(plain)
        done = traced if use_trace else plain
        enough = len(plain) + len(traced) >= MIN_PASSES and (tracer is None or traced)
        if enough and (time.perf_counter() - start + statistics.median(
                p["wall_s"] for p in done) > args.seconds):
            break
        if use_trace:
            tracer.reset()
            with tracer:
                parts, outputs = wl.run()
            layers.append(spans.layer_metrics(tracer))
            span_dump.append((tracer.name_id, tracer.start, tracer.end, tracer.parent))
        else:
            parts, outputs = wl.run()
        done.append(parts)
        wl.check(outputs, tally)

    def med(passes, key):
        return statistics.median(p[key] for p in passes)

    wall = med(plain, "wall_s")
    e2e = {"wall_s": wall, "setup_s": statistics.median(setup),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "fail_frac": (tally.failed + tally.known_failed) / tally.attempted}
    for key in ("table1_s", "fig2_s"):
        if key in plain[0]:
            e2e[key] = med(plain, key)
    if wl.mc_trials:
        e2e["trials_per_s"] = wl.mc_trials / wall

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes": len(plain), "traced_passes": len(traced),
              "attempted": tally.attempted, "failed": tally.failed,
              "known_failed": tally.known_failed, "failures": tally.messages,
              "end_to_end": e2e, "setup_samples_s": setup,
              "pass_parts": plain, "env": environment(threads)}
    if tracer is not None:
        per_layer = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        per_layer["spectral.slem_closed_form.wrong"] = wl.wrong_roots
        per_layer["trace_overhead_frac"] = med(traced, "wall_s") / wall - 1.0
        per_layer["fail_frac"] = e2e["fail_frac"]
        per_layer["cli.table1_s"] = e2e.get("table1_s", 0.0)
        per_layer["cli.fig2_s"] = e2e.get("fig2_s", 0.0)
        per_layer["simulate.trials_per_s"] = e2e.get("trials_per_s", 0.0)
        report["per_layer"] = per_layer
        report["traced_pass_parts"] = traced
        report["spans_file"] = write_spans(args, tracer.names, span_dump)
    return report


def write_spans(args, names, span_dump) -> str:
    """Spans of every traced pass as one .npz: pass, name, start, end, parent
    (parent is an index into the same pass, -1 for none)."""
    import numpy as np

    path = os.path.join(OUTDIR, f"spans-{args.workload}-seed{args.seed}.npz")
    cols = {"pass": [], "name_id": [], "start": [], "end": [], "parent": []}
    for i, (name_id, start, end, parent) in enumerate(span_dump):
        cols["pass"].append(np.full(len(start), i, dtype=np.int32))
        cols["name_id"].append(np.asarray(name_id, dtype=np.int32))
        cols["start"].append(np.asarray(start))
        cols["end"].append(np.asarray(end))
        cols["parent"].append(np.asarray(parent, dtype=np.int64))
    np.savez(path, names=np.array(names), **{k: np.concatenate(v) for k, v in cols.items()})
    return os.path.relpath(path, ROOT)


def benchmark_spec() -> dict:
    """BENCHMARK.json: which metrics the result line carries, with units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def print_report(report):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"passes {report['passes']} (+{report['traced_passes']} traced)  "
          f"ops {report['attempted']}  failed {report['failed']}  "
          f"known failures {report['known_failed']}")
    for msg in report["failures"]:
        print(f"  {msg}")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<14} {value:.6g} {E2E_UNITS[name]}")
    print("  env " + json.dumps(report["env"], sort_keys=True))


def result_line(report) -> dict:
    if report["trace"]:
        listed, values = benchmark_spec()["per_layer"], report["per_layer"]
    else:
        listed, values = benchmark_spec()["end_to_end"], report["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; one table of end-to-end metrics."""
    reports = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        with open(report_path(name, args), encoding="utf-8") as f:
            reports.append(json.load(f))
    print(f"{'metric':<14} {'unit':<6}" + "".join(f"{r['workload']:>16}" for r in reports))
    for name, unit in E2E_UNITS.items():
        cells = [r["end_to_end"].get(name) for r in reports]
        print(f"{name:<14} {unit:<6}" + "".join(
            f"{'-' if v is None else format(v, '.6g'):>16}" for v in cells))
    print(f"{'ops':<14} {'count':<6}" + "".join(f"{r['attempted']:>16}" for r in reports))
    print(f"{'failed+known':<14} {'count':<6}" + "".join(
        f"{r['failed'] + r['known_failed']:>16}" for r in reports))
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {f"{r['workload']}.{k}": {"value": v, "unit": E2E_UNITS[k]}
                    for r in reports for k, v in r["end_to_end"].items()}}))
    return 0


def report_path(name, args) -> str:
    return os.path.join(OUTDIR, f"report-{name}-seed{args.seed}-trace{args.trace}.json")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("--seconds must be >= 1", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "star_consensus", "__init__.py")):
        print(f"no package source at {SRC}/star_consensus: run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUTDIR, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    threads = pin_threads()
    report = run_workload(args, threads)
    with open(report_path(args.workload, args), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
