"""gridplan benchmark: one workload per process, closed loop, one job at a time.

    python3 bench/run.py --workload bundled-compare --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  It sets up (imports and case documents), runs timed passes over
the workload's jobs until ``--seconds`` would be exceeded, checks every
answer outside the timed region, and prints each metric by name and unit.
The last line of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics (median over passes), with times
  rescaled to the reference host speed (see ``hostspeed``);
* ``--trace 1``: the per-layer metrics, from spans recorded around calls
  into each module on alternate passes (the others give the untraced wall
  time the tracing overhead is measured against).

See ``bench/README.md`` for the workloads and the metric definitions.
"""

import os

# one BLAS thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH_DIR)]

import hostspeed  # noqa: E402

SETUP_REPEATS = 5


@dataclass
class Pass:
    rec: "workloads.Recorder"
    traced: bool
    first_span: int       # this pass's spans are tracer.spans[first_span:end_span]
    end_span: int


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "worst_job_s": "s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MiB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gridplan" / "__init__.py").is_file():
        print(f"error: no gridplan sources under {SRC}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()

    # -- set-up: imports in fresh interpreters, then the inputs, each repeated
    # and each timed raw and at the reference speed
    imports = [time_imports(workload.imports) for _ in range(SETUP_REPEATS)]
    prepares = [hostspeed.timed_scaled(workload.prepare, args.seed)
                for _ in range(SETUP_REPEATS)]
    inputs = prepares[-1][0]
    import_s, import_raw_s = (statistics.median(t[k] for t in imports) for k in (1, 0))
    prepare_s, prepare_raw_s = (statistics.median(t[k] for t in prepares) for k in (2, 1))
    setup_s = import_s + prepare_s

    # -- timed passes; in trace mode every second pass is traced
    tracer = Tracer() if args.trace else None
    sampler = hostspeed.Sampler()   # host-speed samples in untraced passes only
    sampler.install()
    passes: list[Pass] = []
    elapsed: list[float] = []   # whole passes, untimed bookkeeping included
    deadline = time.perf_counter() + args.seconds
    with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            rec = workloads.Recorder(tracer, None) if traced else workloads.Recorder(None, sampler)
            first_span = len(tracer.spans) if tracer else 0
            if traced:
                tracer.install()
            start = time.perf_counter()
            try:
                workload.run_pass(inputs, rec)
            finally:
                if traced:
                    tracer.uninstall()
            elapsed.append(time.perf_counter() - start)
            passes.append(Pass(rec, traced, first_span,
                               len(tracer.spans) if tracer else 0))
            typical = statistics.median(elapsed)
            enough = len(passes) >= (2 if tracer else 1)
            if enough and time.perf_counter() + typical > deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- untimed correctness gate over every job of every pass
    all_jobs = [job for p in passes for job in p.rec.jobs]
    wrong = workload.verify(inputs, all_jobs)
    failures = {i: why for i, job in enumerate(all_jobs)
                if (why := workloads.unanswered(job)) is not None}
    failures.update(wrong)
    attempted = len(all_jobs)
    failed = len(failures)

    untraced = [p for p in passes if not p.traced]
    wall = [p.rec.scaled for p in untraced]
    wall_raw = [p.rec.seconds for p in untraced]
    kernel = [k for p in passes for k in p.rec.kernel]
    per_job: dict[str, list[float]] = {}
    for p in untraced:
        for job in p.rec.jobs:
            per_job.setdefault(job.name, []).append(job.scaled)
    # the hardest job, each job timed by its median over the passes
    worst_job_s = max(statistics.median(t) for t in per_job.values())
    job_times = sorted(t for times in per_job.values() for t in times)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print_environment()
    print(f"host speed: kernel mean {statistics.fmean(kernel) * 1e3:.3f} ms over "
          f"{len(kernel)} samples, reference {hostspeed.REFERENCE_KERNEL_S * 1e3:.3f} ms; "
          "times below are at the reference speed unless marked raw")
    print(f"set-up: imports {import_s:.4f} s (raw {import_raw_s:.4f} s; median of "
          f"{SETUP_REPEATS} fresh interpreters), inputs {prepare_s:.4f} s "
          f"(raw {prepare_raw_s:.4f} s; median of {SETUP_REPEATS})")
    print(f"passes: {len(untraced)} untraced"
          + (f", {len(passes) - len(untraced)} traced" if tracer else "")
          + f"; wall per untraced pass {summary(wall)}; raw {summary(wall_raw)}")
    print("pass walls (s, raw): " + " ".join(
        f"{p.rec.scaled:.4f} ({p.rec.seconds:.4f})"
        f"{'*' if p.traced else ''}"
        for p in passes) + ("  (* traced)" if tracer else ""))
    print(f"jobs: {len(job_times)} untraced job samples; job time {summary(job_times)}")
    print(f"attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6f}, "
          f"wrong answers {len(wrong)}")
    for name, (count, reason) in sorted(group_failures(all_jobs, failures).items()):
        print(f"  failed job {name} ({count} of its runs): {reason[:160]}")
    probe = workload.probe_defect() if tracer else []
    for name, status, message in probe:
        print(f"root LP probe {name}: {status}" + (f" ({message[:120]})" if message else ""))

    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(wall),
            "worst_job_s": worst_job_s,
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = per_layer(passes, tracer, workload, failed / attempted, probe)
        metrics["wall_raw_s"] = statistics.median(wall_raw)
        metrics["host.kernel_ms"] = statistics.fmean(kernel) * 1e3
        units.update({"wall_raw_s": "s", "host.kernel_ms": "ms"})
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl",
                     t0=tracer.spans[0][1] if tracer.spans else 0.0)

    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def time_imports(modules: str) -> tuple[float, float]:
    """(raw, scaled) seconds for a fresh interpreter to import ``modules``.

    The child itself runs the host-speed kernel before and after the imports,
    so the factor is measured on the CPU the child ran on; the kernel's own
    time is taken out of the raw time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    code = ("import time, hostspeed\n"
            "t = time.perf_counter(); before = hostspeed.kernel_seconds()\n"
            "spent = time.perf_counter() - t\n"
            f"import {modules}\n"
            "t = time.perf_counter(); after = hostspeed.kernel_seconds()\n"
            "print(before, after, spent + time.perf_counter() - t)\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    before, after, spent = map(float, done.stdout.split())
    raw = wall - spent
    return raw, raw * hostspeed.speed_factor([before, after])


def summary(values) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    if not values:
        return "n=0"
    values = sorted(values)
    n = len(values)
    text = f"median {statistics.median(values):.4f} s, n={n}"
    for pct in (99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return text + f", p{pct} {values[rank - 1]:.4f} s ({n - rank} beyond)"
    return text + ", no percentile has 10 samples beyond it"


def group_failures(jobs, failures) -> dict:
    grouped = {}
    for i, reason in failures.items():
        count, _ = grouped.get(jobs[i].name, (0, reason))
        grouped[jobs[i].name] = (count + 1, reason)
    return grouped


def per_layer(passes, tracer, workload, failed_frac, probe):
    """Median over traced passes of each layer metric, plus the overhead."""
    from spans import layer_metrics

    rows = []
    for p in passes:
        if not p.traced:
            continue
        jobs = p.rec.jobs
        nodes = sum(j.facts.get("nodes", 0) for j in jobs)
        row = layer_metrics(tracer.spans, p.first_span, p.end_span, nodes)
        for key in ("columns", "rows", "binaries", "nonzeros"):
            row[f"builder.{key}"] = sum(j.facts.get(key, 0) for j in jobs)
        row["mps.bytes"] = sum(j.facts.get("mps_bytes", 0) for j in jobs)
        row["report.bytes"] = sum(j.facts.get("report_bytes", 0) for j in jobs)
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    metrics["branch_bound.enumerate_s"] = workload.enumerate_s
    metrics["simplex.probe_root_failures"] = sum(status == "failure" for _, status, _ in probe)
    metrics["failed_frac"] = failed_frac
    traced_wall = statistics.median(p.rec.scaled for p in passes if p.traced)
    plain_wall = statistics.median(p.rec.scaled for p in passes if not p.traced)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    units = {name: unit_of(name) for name in metrics}
    return metrics, units


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    return {
        "simplex.pivots_per_lp": "pivot/lp",
        "simplex.us_per_pivot": "us",
        "simplex.tableau_mib": "MiB",
        "branch_bound.lps_per_node": "lp/node",
        "failed_frac": "fraction",
    }.get(name, "count")


def print_environment() -> None:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    print(f"environment: git {sha}; nproc {os.cpu_count()}; "
          f"python {platform.python_version()}; numpy {numpy.__version__}; "
          f"blas {blas.get('name')} {blas.get('version')}; "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


if __name__ == "__main__":
    sys.exit(main())
