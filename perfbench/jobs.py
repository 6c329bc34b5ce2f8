"""The cold jobs of the ``convert`` and ``verify`` workloads, and how each
job's output is checked.

A job is one ``ncsf`` command line, run once in a fresh interpreter.  The
degree ladders stop where a job takes seconds: n=8 for QSym and NSym
matrices, n=9 for Sym matrices and for the QSym YQS -> F tableau counts,
n=7 for the main-theorem, square and duality suites and n=5 for solomon.
"""

from collections import defaultdict
from dataclasses import dataclass

import checks
import oracles

# the degree above which ``ncsf`` refuses a command unless NCSF_MAX_N is set
DEFAULT_BOUND = 8


@dataclass(frozen=True)
class Job:
    argv: tuple
    check: str  # the check on this job's own output; "" for none
    pair: str = ""  # the two jobs sharing a pair key build inverse matrices
    index: tuple = ()  # the partition or composition of a ``char`` job

    @property
    def degree(self) -> int:
        if "-n" in self.argv:
            return int(self.argv[self.argv.index("-n") + 1])
        return sum(self.index)

    @property
    def max_n(self):
        """The NCSF_MAX_N a user must set to run this job, or None."""
        return self.degree if self.degree > DEFAULT_BOUND else None


def _matrix(space, source, target, n, check="", pair=False) -> Job:
    argv = ("matrix", "--space", space, "--from", source, "--to", target, "-n", str(n))
    key = f"{space}:{'-'.join(sorted((source, target)))}:{n}" if pair else ""
    return Job(argv, check, key)


def _label(index) -> str:
    return ",".join(str(part) for part in index)


def convert_jobs(short: bool) -> list:
    """Transition-matrix builds in all three spaces, at a ladder of degrees."""
    top, sym_top = (4, 5) if short else (8, 9)
    jobs = []
    for n in (top - 2, top - 1, top):
        jobs.append(_matrix("qsym", "M", "F", n, "mobius", pair=n == top))
        jobs.append(_matrix("nsym", "S", "H", n, pair=True))
        jobs.append(_matrix("nsym", "H", "S", n, pair=True))
    for n in (top - 1, top, top + 1):
        jobs.append(_matrix("qsym", "YQS", "F", n, "hook-lengths", pair=n == top))
    for n in (sym_top - 2, sym_top - 1, sym_top):
        jobs.append(_matrix("sym", "m", "s", n, "schur-in-monomials"))
    jobs.append(_matrix("qsym", "F", "M", top, pair=True))
    jobs.append(_matrix("qsym", "F", "YQS", top, pair=True))
    jobs.append(_matrix("nsym", "S", "YS", top - 1, pair=True))
    jobs.append(_matrix("nsym", "YS", "S", top - 1, pair=True))
    for n in (sym_top - 1, sym_top):
        jobs.append(_matrix("sym", "s", "p", n, "murnaghan-nakayama"))
    return jobs


def verify_jobs(short: bool, rng) -> list:
    """The verification suites at a ladder of degrees, then the irreducible
    and Young characters of every partition of the top degree.  The seed
    picks which rearrangement of each partition indexes its Young job."""
    top, solomon_top = (4, 3) if short else (7, 5)
    jobs = []
    for suite, last in (("main-theorem", top), ("square", top), ("duality", top), ("solomon", solomon_top)):
        for n in (last - 1, last):
            jobs.append(Job(("verify", suite, "-n", str(n), "--json"), "suite"))
    for lam in oracles.partitions(top):
        jobs.append(Job(("char", "--irreducible", _label(lam)), "irreducible", index=lam))
        alpha = list(lam)
        rng.shuffle(alpha)
        jobs.append(Job(("char", "--young", _label(alpha)), "young", index=tuple(alpha)))
    return jobs


def check_round(jobs, outputs, rng, columns_checked) -> list:
    """Problems with one round's outputs; ``None`` marks a failed job, which
    is counted apart and not checked.  Inverse-pair and m -> s checks use
    ``columns_checked`` seeded columns (all columns when it is None)."""
    problems = []
    pairs = defaultdict(list)

    def picks(size):
        if columns_checked is None or columns_checked >= size:
            return range(size)
        return sorted(rng.sample(range(size), columns_checked))

    for job, out in zip(jobs, outputs):
        if out is None:
            continue
        if job.argv[0] == "matrix":
            payload = checks.parse_matrix(out)
            if job.pair:
                pairs[job.pair].append(payload)
            if job.check == "mobius":
                problems += checks.check_mobius(payload)
            elif job.check == "hook-lengths":
                problems += checks.check_hook_lengths(payload)
            elif job.check == "murnaghan-nakayama":
                problems += checks.check_schur_in_power_sums(payload)
            elif job.check == "schur-in-monomials":
                problems += checks.check_monomials_to_schur(payload, picks(len(payload["order"])))
        elif job.check == "suite":
            problems += checks.check_suite(out, job.argv[1], job.degree)
        elif job.check == "irreducible":
            problems += checks.check_irreducible(out, job.index)
        elif job.check == "young":
            problems += checks.check_young(out, job.index)
    for key, payloads in pairs.items():
        if len(payloads) == 2:
            forward, backward = payloads
            problems += checks.check_inverse_pair(forward, backward, picks(len(forward["order"])))
    return problems
