"""Benchmark of the cliffstring batch CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload factor --seed 1 --seconds 15 --trace 0

The workload's job list is built from the seed (workloads.py) and run in
this one process, one ``cliffstring.cli.main(argv)`` call after another,
with every report checked independently (checks.py).  ``--trace 0`` prints
the end-to-end metrics, with job and set-up times at reference speed
(reference.py).  ``--trace 1`` runs the list once untraced and once
traced (tracer.py) and prints the per-layer metrics.  The last line of
standard output is the result as one JSON object; the full record, with
the host and the job-list digest, is saved under .perfbench_results/.
See README.md for the workloads, the metrics and how they relate.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads: see "Load model" in README.md.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (after the thread settings)
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_ABOVE = 10  # job_tail_s is the highest percentile with this many jobs above it

END_TO_END_UNITS = {
    "jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# -- set-up ------------------------------------------------------------------


def set_up(args, directory):
    """Import the CLI and write the workload's fixtures: what precedes job one."""
    from cliffstring import cli

    jobs = workloads.job_list(args.workload, args.seed, args.seconds)
    workloads.write_fixtures(jobs, directory)
    return cli, jobs


def time_set_up(args, work) -> list:
    """(wall, kernel) seconds from process start to ready-for-job-one, in fresh processes.

    The kernel seconds are those of the reference kernels timed right
    before and right after each probe.
    """
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--probe", str(work / f"probe{i}")]
        before = reference.seconds()
        start = time.time()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("set-up probe timed out")
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        wall = float(out) - start
        samples.append((wall, reference.around(before, reference.seconds())))
    return samples


# -- jobs ----------------------------------------------------------------------


def _call_cli(cli, argv):
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:  # a traceback is a failed job, not a failed benchmark
        return None, traceback.format_exc(limit=3)


def run_jobs(cli, jobs, directory, tracer=None, check=False) -> list:
    """Run jobs one after another in directory; one record per job, outputs removed."""
    if check:
        import checks
    records = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for job in jobs:
            records.append(_run_job(cli, job, tracer, checks.check_job if check else None))
    finally:
        os.chdir(cwd)
    return records


def _run_job(cli, job, tracer, check_job) -> dict:
    files = workloads.files(job)
    argv = workloads.argv(job)
    gc.collect()
    if tracer is None:
        before = reference.seconds()
        start = time.perf_counter()
        rc, error = _call_cli(cli, argv)
        seconds = time.perf_counter() - start
        rec = {"kernel_s": reference.around(before, reference.seconds())}
    else:
        before = tracer.counts()
        (rc, error), seconds, callee = tracer.run(job["id"], lambda: _call_cli(cli, argv))
        after = tracer.counts()
        rec = {"self_s": seconds - callee,
               "counts": {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}}
    outputs = [files["report"]] + ([files["csv"]] if job["csv"] else [])
    digest, size = hashlib.sha256(), 0
    for path in outputs:
        try:
            data = Path(path).read_bytes()
        except OSError:
            data = b"<missing>"
        digest.update(data)
        size += len(data)
    rec.update(id=job["id"], rc=rc, seconds=seconds, digest=digest.hexdigest(), bytes=size)
    if check_job is not None:
        if error is not None:
            rec["wrong"], rec["missed"] = [f"raised: {error.strip().splitlines()[-1]}"], []
        else:
            rec["wrong"], rec["missed"] = check_job(job, rc, files)
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    return rec


def _failure(job, rec) -> dict:
    return {"id": job["id"], "argv": workloads.argv(job), "seed": job["seed"],
            "fixture": job["fixture"], "exit": rec["rc"], "reasons": rec["wrong"] + rec["missed"]}


# -- metrics -------------------------------------------------------------------


def tail(seconds) -> tuple:
    """(percentile, value): the highest whole percentile with TAIL_ABOVE jobs above it."""
    n = len(seconds)
    ordered = sorted(seconds)
    if n <= TAIL_ABOVE:
        return 100, ordered[-1]
    pct = math.floor(100 * (n - TAIL_ABOVE) / n)
    return pct, ordered[math.ceil(pct * n / 100) - 1]


def list_seconds(jobs, seconds) -> float:
    """Time of the whole job list, each job taken at the median time of its kind.

    A kind's median is steadier than a sum over single jobs, which one
    slow burst of the host can move.
    """
    by_kind = {}
    for job, s in zip(jobs, seconds):
        by_kind.setdefault(workloads.kind(job), []).append(s)
    return sum(len(v) * statistics.median(v) for v in by_kind.values())


def end_to_end(jobs, records, setup_samples, scaled=True) -> dict:
    """End-to-end metrics, at reference speed (reference.py) unless scaled is false."""
    if scaled:
        seconds = [reference.scale(r["seconds"], r["kernel_s"], job["command"])
                   for job, r in zip(jobs, records)]
        setup = [reference.scale(wall, kernel) for wall, kernel in setup_samples]
    else:
        seconds = [r["seconds"] for r in records]
        setup = [wall for wall, _ in setup_samples]
    values = {
        "jobs_per_s": len(seconds) / list_seconds(jobs, seconds),
        "job_p50_s": statistics.median(seconds),
        "job_tail_s": tail(seconds)[1],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layers(cli, workload, jobs, work, plain) -> tuple:
    """Traced run of the same jobs: (tracer, per-layer metrics, mismatches, flags).

    Mismatches are outputs whose bytes the tracing changed; flags are
    counts that did not repeat exactly between two traced runs of a job.
    """
    import tracer as tracing

    job_dir, fixture_dir = str(work / "jobs"), str(work / "traced-fixtures")
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.job = "setup"
        workloads.write_fixtures(jobs, fixture_dir)
        traced = run_jobs(cli, jobs, job_dir, tracer=tr)
    finally:
        tr.uninstall()
    # Counts must repeat exactly: run the first round traced once more.
    again = tracing.Tracer()
    again.install()
    try:
        repeat = run_jobs(cli, jobs[:workloads.round_size(workload)], job_dir, tracer=again)
    finally:
        again.uninstall()

    mismatches = []
    for job in jobs:
        name = workloads.files(job)["input"]
        if job["fixture"] is not None and \
                Path(job_dir, name).read_bytes() != Path(fixture_dir, name).read_bytes():
            mismatches.append(f"job {job['id']}: traced fixture differs from the untraced one")
    mismatches += [f"job {t['id']}: traced output bytes differ from the untraced run"
                   for p, t in zip(plain, traced) if p["digest"] != t["digest"]]
    mismatches += [f"job {t['id']}: output bytes differ between two traced runs"
                   for t, r in zip(traced, repeat) if t["digest"] != r["digest"]]
    flags = [f"job {t['id']}: counts differ between two traced runs"
             for t, r in zip(traced, repeat) if (t["counts"], t["bytes"]) != (r["counts"], r["bytes"])]
    benchmark_side = {
        "cli.self_s": sum(r["self_s"] for r in traced),
        "cli.report_bytes": sum(r["bytes"] for r in traced),
        "trace.overhead_ratio": statistics.median(t["seconds"] / p["seconds"] for p, t in zip(plain, traced)),
    }
    return tr, tr.metrics(benchmark_side), mismatches, flags


# -- host ----------------------------------------------------------------------


def _openblas() -> list:
    """Each loaded OpenBLAS library with its thread count and build string."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return []
    out = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        entry = {"library": os.path.basename(path)}
        for key, base, restype in (("threads", "openblas_get_num_threads", ctypes.c_int),
                                   ("config", "openblas_get_config", ctypes.c_char_p)):
            for name in (base, base + "64_", "scipy_" + base, "scipy_" + base + "64_"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = restype
                    value = fn()
                    entry[key] = value.decode() if isinstance(value, bytes) else value
                    break
        out.append(entry)
    return out


def host() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "platform": platform.platform(),
    }


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "cliffstring" / "cli.py").is_file():
        print(f"perfbench: no cliffstring sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Jobs and the reference kernels share one CPU, so the kernels see the
    # speed the jobs see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.probe:
        set_up(args, args.probe)
        print(repr(time.time()), flush=True)
        os._exit(0)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    mismatches, flags, spans, missing, wall_metrics = [], [], None, [], None
    try:
        reference.seconds()  # warm up: the first call pays numpy's lazy set-up
        setup_samples = time_set_up(args, work) if args.trace == 0 else []
        cli, jobs = set_up(args, str(work / "jobs"))
        plain = run_jobs(cli, jobs, str(work / "jobs"), check=True)
        if args.trace == 0:
            metrics = end_to_end(jobs, plain, setup_samples)
            wall_metrics = end_to_end(jobs, plain, setup_samples, scaled=False)
        else:
            tr, metrics, mismatches, flags = layers(cli, args.workload, jobs, work, plain)
            spans, missing = tr.spans, tr.missing
            for name in missing:
                print(f"perfbench: warning: {name} not found; metrics fed only by it are left out",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    failures = [_failure(job, rec) for job, rec in zip(jobs, plain) if rec["wrong"] or rec["missed"]]
    correct = not mismatches and not any(rec["wrong"] for rec in plain)
    pct, _ = tail([r["seconds"] for r in plain])
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "jobs": len(jobs), "job_tail_percentile": pct, "job_list_sha256": workloads.digest(jobs),
    }
    result = {"correct": correct, "attempted": len(plain), "failed": len(failures), "metrics": metrics}
    record = dict(summary, host=host(), result=result, wall_metrics=wall_metrics,
                  reference_s=reference.REFERENCE_S, setup_samples_s=setup_samples,
                  job_seconds=[r["seconds"] for r in plain],
                  job_kernel_seconds=[r.get("kernel_s") for r in plain], failures=failures,
                  mismatches=mismatches, flags=flags, missing_names=missing)

    out_dir = ROOT / ".perfbench_results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    print("perfbench: " + json.dumps(summary))
    print("host: " + json.dumps(record["host"]))
    for f in failures:
        origin = f"fixture {json.dumps(f['fixture'])}" if f["fixture"] else f"seed {f['seed']}"
        print(f"failed job {f['id']}: {' '.join(f['argv'])}; {origin}; {'; '.join(f['reasons'])}")
    for line in mismatches + flags:
        print(f"FLAG: {line}")
    for name, m in metrics.items():
        wall = f" (wall {wall_metrics[name]['value']:.6g})" if wall_metrics and name != "peak_rss_mb" else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{wall}")
    print(f"fail_rate = {len(failures) / len(plain):.6g} ratio ({len(failures)} of {len(plain)} jobs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
