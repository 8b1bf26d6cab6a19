"""Case runner: per-case time limit, outcome accounting, per-pass metrics.

A case is one call into trusskit with a judge that compares the result
with an answer computed by ``oracles``.  Each call runs in the main thread
under a ``signal.setitimer`` limit; a timed-out call's result is dropped.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

LIMIT_S = 1.0

DECIDED = "decided"            # the known-correct exact verdict, in time
INCONCLUSIVE = "inconclusive"  # the library declined to decide
WRONG = "wrong"                # a verdict, count or value contradicting the known answer
BREACH = "breach"              # CLI contract broken: exit code, lossy round trip
ERROR = "error"                # an exception escaped the call
TIMEOUT = "timeout"            # the call hit the limit

FAILED = (WRONG, BREACH, ERROR, TIMEOUT)


@dataclass
class Case:
    name: str
    call: Callable[[], object]
    judge: Callable[[object], str]


class CaseTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so library handlers don't catch it."""


def _on_alarm(signum, frame):
    raise CaseTimeout


def install_alarm():
    signal.signal(signal.SIGALRM, _on_alarm)


def run_case(case: Case, limit: float):
    """(outcome, seconds).  Seconds is the measured call time, or the limit
    for a call that was cut off."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            value = case.call()
            elapsed = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        return TIMEOUT, limit
    except (Exception, SystemExit):
        return ERROR, time.perf_counter() - t0
    if elapsed >= limit:
        return TIMEOUT, limit
    try:
        return case.judge(value), elapsed
    except Exception:  # a result of the wrong shape is a wrong answer
        return WRONG, elapsed


def verdict(expected):
    """Judge a Report against a known pass (True) or fail (False) answer."""
    def judge(report):
        if report.status == "inconclusive":
            return INCONCLUSIVE
        ok = report.status == ("pass" if expected else "fail")
        return DECIDED if ok else WRONG
    return judge


def charged(outcome, seconds, limit=LIMIT_S):
    """Time to verdict: measured when decided, the full limit otherwise."""
    return seconds if outcome == DECIDED else limit


@dataclass
class PassResult:
    outcomes: list      # one per case, in case order
    seconds: list

    @property
    def verdict_s(self):
        return sum(charged(o, s) for o, s in zip(self.outcomes, self.seconds))


def run_pass(cases, limit=LIMIT_S, skip=(), before=None, after=None):
    """One pass over the cases.  Cases whose index is in ``skip`` are not
    called and keep the outcome given for them there (used for cases an
    earlier pass saw time out)."""
    outcomes, seconds = [], []
    for i, case in enumerate(cases):
        if i in skip:
            outcomes.append(skip[i])
            seconds.append(LIMIT_S)
            continue
        if before:
            before()
        outcome, s = run_case(case, limit)
        if after:
            after(outcome)
        outcomes.append(outcome)
        seconds.append(s)
    return PassResult(outcomes, seconds)


def quantiles(values):
    """(median, p90) of a list of timings."""
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), cuts[8]


def summarize(cases, passes):
    """End-to-end figures over passes, plus the per-case timing table."""
    attempted = sum(len(p.outcomes) for p in passes)
    decided = sum(o == DECIDED for p in passes for o in p.outcomes)
    failed = sum(o in FAILED for p in passes for o in p.outcomes)
    wrong = sum(o == WRONG for p in passes for o in p.outcomes)
    per_case = []
    for i, case in enumerate(cases):
        times = [p.seconds[i] for p in passes]
        med, p90 = quantiles(times)
        per_case.append({"case": case.name, "outcome": passes[-1].outcomes[i],
                         "median_s": round(med, 6), "p90_s": round(p90, 6),
                         "n": len(times)})
    all_times = [s for p in passes for s in p.seconds]
    med, p90 = quantiles(all_times)
    return {
        "attempted": attempted,
        "decided": decided,
        "failed": failed,
        "wrong": wrong,
        "verdict_s": statistics.median(p.verdict_s for p in passes),
        "case_seconds": {"median": med, "p90": p90, "n": len(all_times)},
        "cases": per_case,
    }
