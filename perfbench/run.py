"""The ncsf benchmark: cold ``convert`` and ``verify`` jobs and a warm
``algebra`` session, each timed from outside the library.

Usage:
    python3 perfbench/run.py --workload {convert,verify,algebra} --seed N
                             --seconds S --trace {0,1} [--short]

Every job runs in a fresh worker interpreter (``worker.py``), one at a
time, so the benchmark keeps at most one core busy besides itself.  A
round is the workload's whole job list (for ``algebra``, one session);
the run repeats whole rounds while the next one is expected to end within
``--seconds``, and always runs at least one.  Every output is checked
(``checks.py``, ``algebra.py``) against values computed without ``ncsf``
or against algebraic laws.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``setup_s`` (median over workers of spawn to imported-and-inputs-ready;
for ``algebra`` that includes building the matrices), ``wall_s`` and
``cpu_s`` (one round's timed work: per job, the median over the run of
its timed units times the units per round, summed) and ``peak_rss_mb`` (largest over the run's workers).  With
``--trace 1`` it reports the per-layer metrics of ``spans.py`` instead,
medians over rounds.  ``--short`` runs every check at small degrees in a
few seconds; its numbers are no metrics.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblists
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("convert", "verify", "algebra")
JOB_TIMEOUT_S = 150

# the algebra session: degrees up to "top", "repeats" passes over the law list
ALGEBRA = {"full": {"top": 7, "repeats": 8}, "short": {"top": 4, "repeats": 1}}
# seeded columns per matrix that the inverse-pair checks multiply out
COLUMNS_CHECKED = 4


class HarnessError(Exception):
    """The benchmark itself cannot go on: no result is printed."""


def spawn(job: dict) -> dict:
    """Run one job in a fresh worker and return its result, with
    ``setup_s`` measured from just before the spawn."""
    # workers load the bytecode the warm-up import compiled, as an installed
    # package would, whatever the caller's environment says
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("NCSF_") and key != "PYTHONDONTWRITEBYTECODE"
    }
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        capture_output=True,
        text=True,
        env=env,
        timeout=JOB_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout:
        raise HarnessError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def cold_round(joblist, trace: bool, workload: str) -> list:
    results = []
    for i, job in enumerate(joblist):
        spec = {"kind": "cli", "argv": list(job.argv), "max_n": job.max_n, "trace": trace}
        spec["spans"] = f"perfbench/results/spans/{workload}-{i:02d}.jsonl"
        results.append(spawn(spec))
    return results


def algebra_round(seed: int, trace: bool, size: dict) -> list:
    spec = {"kind": "algebra", "seed": seed, "trace": trace, **size}
    spec["spans"] = "perfbench/results/spans/algebra.jsonl"
    return [spawn(spec)]


def _failed(result) -> bool:
    # exit 1 is ``verify`` reporting a failed check: an answer, checked below
    return result.get("code", 0) not in (0, 1)


def run(workload: str, seed: int, seconds: float, trace: bool, short: bool) -> tuple:
    """The printed result and the per-job detail of one run."""
    rng = random.Random(seed)
    size = "short" if short else "full"
    if workload == "convert":
        joblist = joblists.convert_jobs(short)
    elif workload == "verify":
        joblist = joblists.verify_jobs(short, rng)
    else:
        joblist = None
    if joblist:
        rng.shuffle(joblist)
    spawn({"kind": "import"})  # leaves compiled bytecode behind, so no worker compiles

    rounds, problems, attempted, failed = [], [], 0, 0
    began = time.monotonic()
    while True:
        round_began = time.monotonic()
        if joblist is None:
            results = algebra_round(seed, trace, ALGEBRA[size])
            attempted += results[0]["calls"]
            failed += results[0]["failed"]
            if results[0]["broken_count"]:
                problems.append(f"{results[0]['broken_count']} law instances broken: {results[0]['broken']}")
        else:
            results = cold_round(joblist, trace, workload)
            attempted += len(results)
            failed += sum(map(_failed, results))
            outputs = [None if _failed(r) else r["out"] for r in results]
            problems += joblists.check_round(joblist, outputs, rng, None if short else COLUMNS_CHECKED)
        rounds.append(results)
        now = time.monotonic()
        if short or now - began + (now - round_began) > seconds:
            break

    jobs_per_round = len(rounds[0])

    def per_job(key):
        # a job's timed units (one CLI call, or each algebra pass): their
        # median over the run, times the units in one round
        units = [[unit for r in rounds for unit in r[j][key]] for j in range(jobs_per_round)]
        return sum(statistics.median(u) * len(rounds[0][j][key]) for j, u in enumerate(units))

    workers = [result for results in rounds for result in results]
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in workers), "s"),
        "wall_s": (per_job("wall"), "s"),
        "cpu_s": (per_job("cpu"), "s"),
        "peak_rss_mb": (max(w["rss_kb"] for w in workers) / 1024, "MB"),
    }
    if trace:
        layer_rounds = [spans.metrics([w["totals"] for w in results]) for results in rounds]
        end_to_end = metrics
        metrics = {}
        for name in spans.metric_names():
            unit = "s" if name.endswith("_s") else "ratio" if name.endswith("hit_ratio") else "count"
            metrics[name] = (statistics.median(r[name] for r in layer_rounds), unit)
    else:
        end_to_end = metrics
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "short": short,
        "rounds": len(rounds),
        "end_to_end": {name: value for name, (value, _) in end_to_end.items()},
        "jobs": [
            {
                "argv": list(joblist[j].argv) if joblist else ["algebra", json.dumps(ALGEBRA[size])],
                "wall": [r[j]["wall"] for r in rounds],
                "cpu": [r[j]["cpu"] for r in rounds],
                "setup_s": [r[j]["setup_s"] for r in rounds],
                "rss_kb": [r[j]["rss_kb"] for r in rounds],
            }
            for j in range(jobs_per_round)
        ],
        "problems": problems,
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="small degrees, one round: a check, not a measurement")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ncsf" / "__init__.py").is_file():
        print(f"run.py: no ncsf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.short)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-short' if args.short else ''}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n")

    for problem in detail["problems"][:20]:
        print(f"WRONG {problem}")
    print(f"{args.workload}: {detail['rounds']} rounds, {result['attempted']} operations attempted, {result['failed']} failed")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:48s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
