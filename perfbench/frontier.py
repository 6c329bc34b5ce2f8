"""The degree frontier: for each verify suite and each listed conversion,
the largest n whose cold job ends within 60 seconds.

Usage: python3 perfbench/frontier.py

Each job runs in a fresh worker (``worker.py``), degree by degree from a
degree known to be fast, until one takes longer than the limit or fails.
A job is killed at the limit and may use at most 3 GB of address space.
The figures go to ``perfbench/results/frontier.json``; they are reference
figures for the README, not metrics.
"""

import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LIMIT_S = 60

# (label, argv before the degree, first degree tried)
SEARCHES = (
    ("qsym M->F", ("matrix", "--space", "qsym", "--from", "M", "--to", "F"), 8),
    ("qsym F->YQS", ("matrix", "--space", "qsym", "--from", "F", "--to", "YQS"), 8),
    ("qsym YQS->F", ("matrix", "--space", "qsym", "--from", "YQS", "--to", "F"), 9),
    ("nsym S->H", ("matrix", "--space", "nsym", "--from", "S", "--to", "H"), 8),
    ("nsym S->YS", ("matrix", "--space", "nsym", "--from", "S", "--to", "YS"), 8),
    ("sym m->s", ("matrix", "--space", "sym", "--from", "m", "--to", "s"), 9),
    ("sym s->p", ("matrix", "--space", "sym", "--from", "s", "--to", "p"), 9),
    ("verify main-theorem", ("verify", "main-theorem", "--json"), 7),
    ("verify square", ("verify", "square", "--json"), 7),
    ("verify duality", ("verify", "duality", "--json"), 7),
    ("verify solomon", ("verify", "solomon", "--json"), 5),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def timed(argv, n):
    """Seconds the job's work took, or None when it failed or ran too long."""
    job = {"kind": "cli", "argv": [*argv, "-n", str(n)], "max_n": n}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            capture_output=True,
            text=True,
            timeout=LIMIT_S + 5,
            preexec_fn=_limit_memory,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    seconds = result["wall"][0]
    return seconds if result["code"] == 0 and seconds <= LIMIT_S else None


def main() -> int:
    out = {}
    for label, argv, first in SEARCHES:
        times = {}
        n = first
        while (seconds := timed(argv, n)) is not None:
            times[n] = seconds
            print(f"{label} n={n}: {seconds:.2f} s", flush=True)
            n += 1
        print(f"{label} n={n}: over {LIMIT_S} s or failed", flush=True)
        out[label] = {"frontier": max(times, default=None), "seconds": times, "first_over": n}
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "frontier.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
