"""fcrn benchmark: closed-loop workloads, end-to-end metrics, traced layers.

Usage, from the repository root:

    python3 bench/run.py --workload cli-functional --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

One process runs one thing at a time (one caller, closed loop: each
iteration waits for the previous one). Inputs come from --seed only.
With --trace 0 the run repeats its workload for --seconds and reports the
end-to-end metrics of BENCHMARK.json as medians over iterations. Times
are seconds at reference host speed: each timed region's seconds divided
by the host's slowness sampled inside it (hostspeed.py); the seconds as
measured are printed after them and kept in the result file. With
--trace 1 it alternates untraced and traced iterations for --seconds and
reports the per-layer metrics; tracing overhead is the difference of their
median wall times. The last stdout line is the JSON result. The exit status
is 1 when any operation or output check failed; without the package sources
it is non-zero and no result is printed.
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
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads its BLAS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# set-up repeats at least SETUP_MIN_REPEATS times and until SETUP_SECONDS
# have passed, but at most SETUP_MAX_REPEATS times (median kept)
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_SECONDS = 4.0


def load_package():
    """Import fcrn from this checkout's sources, never from elsewhere."""
    if not (SRC / "fcrn" / "__init__.py").is_file():
        sys.exit("bench: %s/fcrn not found; run from a full checkout" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import fcrn
    if Path(fcrn.__file__).resolve().parent != SRC / "fcrn":
        sys.exit("bench: imported fcrn from %s, not this checkout" % fcrn.__file__)


def source_hash():
    h = hashlib.sha256()
    for path in sorted(SRC.glob("fcrn/*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": source_hash(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them; q1 = q3 for n = 1."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def percentile(values, q):
    """Nearest-rank percentile of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_loop(step, seconds):
    """Call step() until the next call would end past the budget (at least once)."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def ibs_reference(workload, seed):
    with open(BENCH / "reference.json") as fh:
        return json.load(fh)["ibs"].get(workload, {}).get(str(seed))


def check_ibs(iterations, reference, bound):
    """IBS repeats exactly within the run and matches the seed's reference."""
    errors = []
    values = [r["ibs"] for r in iterations]
    if len(set(values)) != 1:
        errors.append("IBS differs between iterations of one seed: %r" % values)
    if reference is not None and not abs(values[0] - reference) <= bound * reference:
        errors.append("IBS %r differs from the reference %r by more than %g"
                      % (values[0], reference, bound))
    return errors


def check_counters(key, counters_by_iteration):
    """Exact counters repeat across the run's traced iterations and across
    traced runs of the same code and seed (stored in the work directory)."""
    errors = []
    first = counters_by_iteration[0]
    for k, c in enumerate(counters_by_iteration[1:], start=1):
        if c != first:
            errors.append("counters of traced iteration %d differ: %r vs %r"
                          % (k, c, first))
    path = WORK / "counters.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    if key in seen and seen[key] != first:
        errors.append("counters differ from an earlier run: %r vs %r"
                      % (first, seen[key]))
    seen.setdefault(key, first)
    path.write_text(json.dumps(seen, sort_keys=True, indent=1))
    return errors


def end_to_end(iterations, setups):
    """Metrics of an untraced run: medians over iterations of the times at
    reference host speed; and the times as measured."""
    names = ("wall_s", "train_s", "score_s")
    measured = {name: [r[name] for r in iterations] for name in names}
    measured["setup_s"] = [clock.seconds["setup"] for clock in setups]
    summary = {name: [r["scaled"][name] for r in iterations] for name in names}
    summary["setup_s"] = [clock.scaled["setup"] for clock in setups]
    summary["ibs"] = [r["ibs"] for r in iterations]
    summary["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return summary, measured


def per_layer(tracer, untraced, traced, counter_key, run_ops):
    """Metrics of a traced run: layer seconds are one traced set-up plus the
    median over traced iterations; counters must repeat exactly."""
    import tracing
    setup_incl, setup_self = tracer.layer_times("setup")
    per_iter = [tracer.layer_times(k) for k in range(len(traced))]
    summary = {}
    for name in tracing.SPAN_NAMES:
        summary[name + "_s"] = [setup_incl[name] + statistics.median(
            incl[name] for incl, _ in per_iter)]
        summary[name + "_self_s"] = [setup_self[name] + statistics.median(
            self_t[name] for _, self_t in per_iter)]
    counters = [tracer.counts[k] for k in range(len(traced))]
    run_ops.attempted += 1
    run_ops.check("exact counters", check_counters(counter_key, counters))
    for name, value in counters[0].items():
        summary[name] = [value]
    projected = counters[0]["basis.subjects_projected"]
    summary["basis.useful_ratio"] = [
        counters[0]["basis.subjects_needed"] / projected if projected else 0.0]
    batches = [b for k in range(len(traced)) for b in tracer.batch_ms(k)]
    summary["model.batch_ms.p50"] = [percentile(batches, 50) if batches else 0.0]
    summary["model.batch_ms.p99"] = [percentile(batches, 99) if batches else 0.0]
    summary["model.batch_ms.n"] = [len(batches)]
    summary["trace.overhead_s"] = [statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in untraced)]
    return summary


def run_workload(args, spec):
    import hostspeed
    import numpy as np
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit("bench: unknown workload %r" % args.workload)
    workdir = WORK / ("%s-s%d" % (args.workload, args.seed))
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, str(workdir))
    prov = provenance(args.seed)
    run_ops = workloads.Ops()  # set-up and the run-level checks

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.setup(run_ops)
        finally:
            tracer.uninstall()
        traced = []

        def untraced_then_traced():
            untraced = workload.iterate()
            tracer.iteration = len(traced)
            tracer.install()
            try:
                traced.append(workload.iterate())
            finally:
                tracer.uninstall()
            return untraced

        untraced = run_loop(untraced_then_traced, args.seconds)
        iterations = untraced + traced
        key = "%s/%s/%d" % (prov["source_sha256"], args.workload, args.seed)
        summary = per_layer(tracer, untraced, traced, key, run_ops)
        metric_specs = spec["per_layer"]
        tracer.write(WORK / ("trace-%s-s%d.json" % (args.workload, args.seed)))
    else:
        setups = []
        with hostspeed.sampling():
            t0 = time.perf_counter()
            while len(setups) < SETUP_MIN_REPEATS or (
                    time.perf_counter() - t0 < SETUP_SECONDS
                    and len(setups) < SETUP_MAX_REPEATS):
                setups.append(hostspeed.Clock())
                with setups[-1].region("setup"):
                    workload.setup(run_ops)
            iterations = run_loop(workload.iterate, args.seconds)
        summary, measured = end_to_end(iterations, setups)
        metric_specs = spec["end_to_end"]

    reference = ibs_reference(args.workload, args.seed)
    if reference is None:
        print("note: no recorded IBS reference for seed %d" % args.seed)
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["ibs"]
    run_ops.attempted += 1
    run_ops.check("IBS", check_ibs(iterations, reference, bound))

    ops = [run_ops] + [r["ops"] for r in iterations]
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    errors = [e for o in ops for e in o.errors]
    correct = not errors and all(np.isfinite(v) for vals in summary.values() for v in vals)

    print("workload %s, seed %d, trace %d: %d iterations, %d/%d operations failed"
          % (args.workload, args.seed, args.trace, len(iterations), failed, attempted))
    print("provenance: %s" % json.dumps(prov, sort_keys=True))
    metrics = {}
    for m in metric_specs:
        values = summary[m["name"]]
        q1, med, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        print("  %-28s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d"
              % (m["name"], m["unit"], med, q1, q3, len(values)))
    print("  %-28s %-6s %.6g" % ("failed_frac", "1", failed / max(attempted, 1)))
    if not args.trace:
        print("  as measured, with the host %.4gx as slow as at reference speed:"
              % hostspeed.slowness())
        for name, values in measured.items():
            q1, med, q3 = quartiles(values)
            print("  %-28s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g n=%d"
                  % (name, "s", med, q1, q3, len(values)))
    for e in errors:
        print("FAILED: %s" % e)

    record = {"workload": args.workload, "trace": args.trace,
              "provenance": prov, "summary": summary, "errors": errors,
              "attempted": attempted, "failed": failed}
    if not args.trace:
        record["measured"] = {"seconds": measured, "slowness": hostspeed.slowness()}
    (WORK / ("result-%s-s%d-t%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, sort_keys=True, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload at one seed, each in its own process (own peak RSS)."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        for trace_flag in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace_flag)]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="cli-functional, mar-sweep, cli-cohort, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not 0 <= args.seed < 2 ** 32:
        sys.exit("bench: seed must lie in [0, 2**32)")
    load_package()
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
