"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/worker.py '<job as JSON>'

The job says what to run: ``cli`` calls ``ncsf.cli.main(argv)`` once with
stdout captured, the way ``ncsf ...`` runs; ``algebra`` runs one warm
session (see ``algebra.py``); ``import`` only imports the package.  The
worker imports ``ncsf`` from the ``src`` directory next to the benchmark
and nowhere else.  Its last line of stdout is one JSON object: when set-up
ended (``time.monotonic``), the wall and CPU seconds of each unit of timed
work (the one CLI call, or each pass of the algebra session), the process's
peak RSS, and what the job produced.
"""

import contextlib
import io
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _import_ncsf():
    sys.path.insert(0, str(SRC))
    import ncsf
    import ncsf.cli

    if Path(ncsf.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"ncsf came from {ncsf.__file__}, not from {SRC}")
    return ncsf


def _run_cli(ncsf, job) -> dict:
    if job.get("max_n"):
        os.environ["NCSF_MAX_N"] = str(job["max_n"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ncsf.cli.main(job["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed operation is counted, not fatal
            code = f"{type(exc).__name__}: {exc}"
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()[-2000:]}


def main() -> int:
    job = json.loads(sys.argv[1])
    try:
        ncsf = _import_ncsf()
    except ImportError as exc:
        print(f"worker: cannot import ncsf: {exc}", file=sys.stderr)
        return 3
    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.Tracer()
        tracer.install()
        for layer in tracer.missing:
            print(f"worker: no function {layer} to trace", file=sys.stderr)

    if job["kind"] == "algebra":
        import algebra

        algebra.warm_up(ncsf, job["top"])
        laws = algebra.instances(ncsf, random.Random(job["seed"]), job["top"], job["repeats"])
    ready = time.monotonic()
    if tracer:
        tracer.start()
    walls, cpus = [], []
    if job["kind"] == "algebra":
        sides, failed = [], 0
        size = len(laws) // job["repeats"]
        for first in range(0, len(laws), size):
            cpu0, wall0 = _cpu(), time.perf_counter()
            for law, inputs in laws[first : first + size]:
                try:
                    sides.append(algebra.run(ncsf, law, inputs))
                except Exception as exc:  # a failed operation is counted, not fatal
                    sides.append(None)
                    failed += algebra.CALLS[law]
                    print(f"worker: {law} raised {exc!r}", file=sys.stderr)
            walls.append(time.perf_counter() - wall0)
            cpus.append(_cpu() - cpu0)
        broken = [law for (law, _), pair in zip(laws, sides) if pair is not None and pair[0] != pair[1]]
        result = {"calls": algebra.calls(laws), "failed": failed, "broken": broken[:20], "broken_count": len(broken)}
    else:
        cpu0, wall0 = _cpu(), time.perf_counter()
        result = _run_cli(ncsf, job) if job["kind"] == "cli" else {}
        walls.append(time.perf_counter() - wall0)
        cpus.append(_cpu() - cpu0)
    result.update(ready=ready, wall=walls, cpu=cpus, rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer:
        result["totals"] = tracer.totals()
        tracer.write(ROOT / job["spans"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
