"""Seeded job lists and input fixtures for the benchmark workloads.

A workload is a fixed list of CLI jobs.  The list is built from the
workload seed alone: every job's ``--seed`` and every fixture's seed are
drawn from it, so the same seed always gives the same jobs and the same
input files.  The list is made of whole rounds; a round holds the intended
mix of jobs once, and the number of rounds follows from ``--seconds`` and
the nominal round time measured on the reference host (see README.md).
"""

import hashlib
import json
import os
import random

# Nominal seconds of one round on the reference host (2-core Xeon VM, one
# BLAS thread).
ROUND_SECONDS = {"algebra": 1.3, "factor": 7.2, "dynamics": 14.0}

# Fewest jobs in a list, so that job_tail_s is at least p75 (ten jobs above it).
MIN_JOBS = 40

WORKLOADS = tuple(ROUND_SECONDS)

# Acceptance reconstruction tolerance of the resolve jobs.
RESOLVE_TOL = "1e-10"


def rounds(workload: str, seconds: float) -> int:
    fewest = -(-MIN_JOBS // round_size(workload))
    return max(fewest, round(seconds / ROUND_SECONDS[workload]))


def _job(command, args, seed=None, fixture=None, csv=False):
    return {"command": command, "args": args, "seed": seed, "fixture": fixture, "csv": csv}


def _octonion_check(seed):
    return _job("octonion-check",
                ["--trials", "2000", "--seed", str(seed), "--report", "{report}"], seed=seed)


def _lorentz_check(seed):
    return _job("lorentz-check",
                ["--trials", "100", "--nest-depth", "5", "--seed", str(seed), "--report", "{report}"],
                seed=seed)


def _algebra_round(draw):
    # Five octonion-checks to two lorentz-checks, so the median job falls
    # near the middle third of the octonion-check times rather than near
    # the edge between the two kinds, where it would jump from run to run.
    return [_octonion_check(draw()), _lorentz_check(draw()), _octonion_check(draw()),
            _octonion_check(draw()), _lorentz_check(draw()), _octonion_check(draw()),
            _octonion_check(draw())]


def _resolve(draw, n, generator="random_hermitian"):
    fixture = {"generator": generator, "n": n, "seed": draw()}
    return _job("resolve", ["--input", "{input}", "--tol", RESOLVE_TOL, "--output", "{report}"],
                fixture=fixture)


def _factor_round(draw):
    # Each size takes about a third of the round; a quarter of the n=16
    # inputs are degenerate so the unit-pair branch runs.
    jobs = []
    for _ in range(8):
        jobs.append(_resolve(draw, 32))
        jobs.append(_resolve(draw, 16, "random_degenerate_hermitian"))
        jobs.extend(_resolve(draw, 16) for _ in range(3))
    jobs.append(_resolve(draw, 64))
    return jobs


def _string_modes(draw, max_mode, csv):
    fixture = {"generator": "random_spectrum", "max_mode": max_mode, "seed": draw()}
    args = ["--spectrum", "{input}", "--report", "{report}"]
    if csv:
        args += ["--output", "{csv}"]
    return _job("string-modes", args, fixture=fixture, csv=csv)


def _quantum(degree):
    return _job("quantum-check", ["--degree", str(degree), "--report", "{report}"])


def _dynamics_round(draw):
    # String-mode and operator-algebra jobs take about 30 and 70 % of the
    # round with one BLAS thread.  The many degree-5 jobs give the list
    # enough samples and hold the median inside their times; the tail is
    # the 11th-longest job, and the two rounds' eight degree-6 jobs sit
    # right below the four longest (degree 7, max_mode 8 with CSV), so the
    # tail falls inside their times rather than on the edge between two
    # kinds of job.
    degrees = [5, 5, 6, 5, 5, 7, 5, 6, 5, 5, 6, 5, 5, 5, 6, 5]
    spectra = [(3, True), (3, False), (8, True), (8, False)]
    jobs = []
    for k, (max_mode, csv) in enumerate(spectra):
        jobs.append(_string_modes(draw, max_mode, csv))
        jobs.extend(_quantum(d) for d in degrees[4 * k:4 * k + 4])
    return jobs


_ROUNDS = {"algebra": _algebra_round, "factor": _factor_round, "dynamics": _dynamics_round}


def job_list(workload: str, seed: int, seconds: float) -> list:
    rnd = random.Random(f"{workload}:{seed}")

    def draw():
        return rnd.randrange(2**31)

    jobs = []
    for _ in range(rounds(workload, seconds)):
        jobs.extend(_ROUNDS[workload](draw))
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs


def kind(job: dict) -> str:
    """The job's command and input size: jobs of one kind do the same work."""
    fx = job["fixture"] or {}
    size = [f"{k}={fx[k]}" for k in ("generator", "n", "max_mode") if k in fx]
    if "--degree" in job["args"]:
        size.append("degree=" + job["args"][job["args"].index("--degree") + 1])
    return " ".join([job["command"]] + size + (["csv"] if job["csv"] else []))


def round_size(workload: str) -> int:
    return len(_ROUNDS[workload](lambda: 0))


def digest(jobs: list) -> str:
    return hashlib.sha256(json.dumps(jobs, sort_keys=True).encode()).hexdigest()


def files(job: dict) -> dict:
    """Input and output file names of a job, relative to the job directory.

    Jobs run with the job directory as working directory, so reports that
    echo an input path are the same bytes wherever the checkout lies.
    """
    base = f"job{job['id']}"
    return {"input": base + "-in.json", "report": base + "-report.json", "csv": base + ".csv"}


def argv(job: dict) -> list:
    names = files(job)
    return [job["command"]] + [a.format(**names) if a.startswith("{") else a for a in job["args"]]


def write_fixtures(jobs: list, directory: str) -> None:
    """Write each job's input file, drawn as `cliffstring gen-fixture` would draw it."""
    import numpy as np

    from cliffstring import fixtures
    from cliffstring.string_modes import spectrum_to_json

    os.makedirs(directory, exist_ok=True)
    for job in jobs:
        fx = job["fixture"]
        if fx is None:
            continue
        rng = np.random.default_rng(fx["seed"])
        make = getattr(fixtures, fx["generator"])
        if fx["generator"] == "random_spectrum":
            obj = spectrum_to_json(make(rng, max_mode=fx["max_mode"]))
        else:
            obj = make(rng, fx["n"]).to_json()
        with open(os.path.join(directory, files(job)["input"]), "w") as fh:
            json.dump(obj, fh)
