"""tc2q benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src/`` (nothing is installed), the workload is generated from
the seed, set up and warmed, and then whole passes over its job list run,
one job at a time, until ``--seconds`` of measured time have passed.  Every
job's output is checked outside its timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is the full run record (provenance, pass times, failures),
also written to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3         # untraced passes in a --trace 0 run
MIN_TRACE_PASSES = 2   # of each kind in a --trace 1 run, which interleaves them

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.self_s": "s",
    "series.self_s": "s",
    "analytic.self_s": "s",
    "classical.self_s": "s",
    "oracle.self_s": "s",
    "oracle.series_self_s": "s",
    "oracle.series_calls": "count",
    "oracle.propagate_gflop": "GFLOP",
    "oracle.eigh_s": "s",
    "oracle.eigh_calls": "count",
    "oracle.hamiltonian_s": "s",
    "oracle.hamiltonian_calls": "count",
    "oracle.initial_state_s": "s",
    "oracle.wootters_s": "s",
    "oracle.wootters_calls": "count",
    "oracle.dim_max": "count",
    "oracle.columns_total": "count",
    "classical.mc_s": "s",
    "classical.mc_calls": "count",
    "classical.samples_drawn": "count",
    "classical.sample_use_ratio": "ratio",
    "analytic.half_period_s": "s",
    "analytic.half_period_calls": "count",
    "analytic.coherence_s": "s",
    "analytic.coherence_calls": "count",
    "series.write_s": "s",
    "series.write_calls": "count",
    "series.bytes_written": "B",
    "trace.overhead_frac": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_passes(wl, seconds: float, tracer):
    """Whole passes over the job list until ``seconds`` of job time are measured.

    Returns the passes and the problems found, keyed by (pass, job index).
    """
    passes, problems = [], {}
    need_plain = MIN_TRACE_PASSES if tracer else MIN_PASSES
    need_traced = MIN_TRACE_PASSES if tracer else 0
    measured = 0.0
    while True:
        n_traced = sum(p["traced"] for p in passes)
        if (measured >= seconds and len(passes) - n_traced >= need_plain
                and n_traced >= need_traced):
            break
        k = len(passes)
        traced = tracer is not None and k % 4 in (1, 2)  # plain, traced, traced, plain
        first_span = len(tracer.spans) if tracer else 0
        job_times = []
        for j, job in enumerate(wl.jobs):
            error = None
            start = time.perf_counter()
            try:
                if traced:
                    out = tracer.run_job(f"p{k}:{job.id}", job.run)
                else:
                    out = job.run()
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{job.id}: {type(exc).__name__}: {exc}"
            job_times.append(time.perf_counter() - start)
            if error is None:
                try:
                    found = job.check(out)
                except Exception as exc:
                    found = [f"{job.id}: check raised {type(exc).__name__}: {exc}"]
            else:
                found = [error]
            if found:
                problems[(k, j)] = found
        passes.append({"traced": traced, "job_s": job_times,
                       "spans": (first_span, len(tracer.spans) if tracer else 0)})
        measured += sum(job_times)
    return passes, problems


def _import_seconds(src: Path) -> float:
    """Time ``import tc2q.cli`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import tc2q.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def _median_pass_s(passes) -> float:
    """Median over ``passes`` of the time of one whole pass."""
    return statistics.median(sum(p["job_s"]) for p in passes)


def _per_layer(tracer, passes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [spans.pass_metrics(tracer.spans[a:b], a)
                for a, b in (p["spans"] for p in traced)]
    metrics, repeat = {}, True
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = _median_pass_s(traced) / _median_pass_s(plain) - 1.0
        else:
            values = [m[name] for m in per_pass]
            if unit == "s":
                value = statistics.median(values)
            else:
                value = values[0]
                repeat = repeat and all(v == value for v in values)
        metrics[name] = value
    return metrics, repeat


def main(argv=None) -> int:
    args = _parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(nproc)
    src = ROOT / "src"
    if not (src / "tc2q" / "__init__.py").is_file():
        print(json.dumps({"error": f"no tc2q package under {src}"}), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import tc2q
    import tc2q.cli  # noqa: F401  (pulls in every layer module)
    import_s = time.perf_counter() - start
    if Path(tc2q.__file__).resolve().parent != (src / "tc2q").resolve():
        print(json.dumps({"error": f"imported tc2q from {tc2q.__file__}"}), file=sys.stderr)
        return 2

    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(json.dumps({"error": f"unknown workload {args.workload!r}; choose from "
                          f"{sorted(workloads.WORKLOADS)}"}), file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        imports = [import_s] + [_import_seconds(src) for _ in range(SETUP_REPEATS - 1)]
        repeats = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
            wl.warmup()
            repeats.append(time.perf_counter() - t)
        setup_s = statistics.median(imports) + statistics.median(repeats)

        tracer = spans.Tracer() if args.trace else None
        installed = tracer.install() if tracer else []
        run_t0 = time.perf_counter()
        passes, problems = _run_passes(wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    attempted = len(passes) * len(wl.jobs)
    failed = len(problems)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**workloads.versions(), "nproc": nproc,
                       "cpu_count": os.cpu_count(), "seed": args.seed,
                       "notes": wl.notes, "jobs": wl.provenance()},
        "setup": {"import_s": imports, "generate_and_warmup_s": repeats},
        "passes": [{"traced": p["traced"], "wall_s": sum(p["job_s"]), "job_s": p["job_s"]}
                   for p in passes],
        "fail_frac": failed / attempted,
        "failures": [f for found in problems.values() for f in found][:20],
    }
    if tracer:
        metrics, record["counts_repeat"] = _per_layer(tracer, passes)
        units = PER_LAYER
        record["spans_traced"] = installed
        spans_path = OUT_DIR / f"spans_{args.workload}_s{args.seed}.csv.gz"
        tracer.write_csv_gz(str(spans_path), run_t0)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": _median_pass_s(plain),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = END_TO_END
    record["metrics"] = metrics
    path = OUT_DIR / f"BENCH_{args.workload}_s{args.seed}_t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
