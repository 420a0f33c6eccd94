"""Benchmark worker: builds one workload's inputs and runs its jobs in rounds.

    python3 benchmark/worker.py --workload NAME --seed N --workdir DIR --setup-only
    python3 benchmark/worker.py --workload NAME --seed N --workdir DIR --seconds S --trace 0|1

``run.py`` starts it in a fresh interpreter with ``PYTHONPATH=src``.  With
``--setup-only`` it imports the program, builds the inputs and exits, which
is what ``setup_s`` times.  Otherwise one client runs the job list in a
closed loop, in list order, one round after another, and starts a new round
only while the rounds so far leave room for one more within ``--seconds``.  With
``--trace 1`` the rounds alternate between traced and untraced, so the same
run gives per-layer numbers and the tracing overhead.  Between jobs it times
the reference kernel (``Reference``) once per 50 ms of job time, which gives
the host's speed during the run.  After the rounds it runs each defect probe
of the workload once, untimed.  The last line of stdout is one JSON document
with the raw job and kernel times and the outcomes.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from collections import Counter

import numpy as np
import scipy

from tracer import Tracer
from workloads import WORKLOADS


class Reference:
    """A fixed kernel that does not call diskdual, timed between the jobs.

    The host's speed changes by up to 1.8x for minutes at a time, and the
    fastest repeat of every job moves with it.  The kernel's low percentile
    moves by about the same factor, so ``run.py`` divides it out.  The
    kernel mixes what the program does: pure-Python arithmetic, many numpy
    operations on a short array, and a sort and two passes over a long one.
    It allocates nothing, so its time follows the host and not the state of
    the allocator that the jobs around it leave behind.
    """

    EVERY_S = 0.05
    MAX_RUNS = 4

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.short = rng.standard_normal(64)
        self.long = rng.standard_normal(2 ** 17)
        self.short_work = np.empty_like(self.short)
        self.long_work = np.empty_like(self.long)
        self.times: list[float] = []
        self._last = -self.EVERY_S

    def kernel(self) -> float:
        total = 0
        for i in range(30000):
            total += i * i
        y = self.short_work
        y[:] = self.short
        for _ in range(200):
            np.multiply(y, 1.0001, out=y)
            np.add(y, 0.5, out=y)
            np.abs(y, out=y)
            np.subtract(y, 0.5, out=y)
        z = self.long_work
        z[:] = self.long
        z.sort()
        np.multiply(self.long, 1.0001, out=z)
        np.cumsum(z, out=z)
        return total + float(y[0]) + float(z[-1])

    def between_jobs(self) -> None:
        """Time the kernel once per EVERY_S since the last timing, at most MAX_RUNS times."""
        runs = min(self.MAX_RUNS, int((time.perf_counter() - self._last) / self.EVERY_S))
        for _ in range(runs):
            began = time.perf_counter()
            self.kernel()
            self._last = time.perf_counter()
            self.times.append(self._last - began)


def judge(job, output):
    """The job's check, with a raised exception counted as a failed job."""
    try:
        if isinstance(output, Exception):
            raise output
        return job.check(output)
    except Exception as exc:
        return "bad", f"{job.label}: {type(exc).__name__}: {exc}", b""


def run_rounds(jobs, in_process, seconds, tracer, reference):
    times = {False: [], True: []}
    first_output = {}
    failures = Counter()
    bad = []
    rounds = 0
    # A job may appear more than once in a round; all its attempts share a key.
    keys = [next(k for k, other in enumerate(jobs) if other is job) for job in jobs]
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 0
        if traced and in_process:
            tracer.install()
        try:
            for job, key in zip(jobs, keys):
                reference.between_jobs()
                began = time.perf_counter()
                try:
                    output = job.run(tracer if traced else None)
                except Exception as exc:  # a job that raises is a failed job
                    output = exc
                elapsed = time.perf_counter() - began
                if traced:
                    tracer.fold()
                times[traced].append((key, elapsed))
                verdict, reason, fingerprint = judge(job, output)
                if first_output.setdefault(key, fingerprint) != fingerprint:
                    verdict, reason = "bad", f"{job.label}: output differs from the first run"
                if verdict != "ok":
                    failures[reason if verdict == "known" else "unexpected"] += 1
                if verdict == "bad":
                    bad.append(reason)
        finally:
            if traced and in_process:
                tracer.uninstall()
        rounds += 1
        so_far = time.perf_counter() - start
        # A traced run needs an untraced round too, for the overhead.
        if so_far + so_far / rounds > seconds and (tracer is None or rounds >= 2):
            break
    return times, failures, bad, rounds


def run_probes(probes):
    """Run each defect probe once; report whether its known defect is still there."""
    outcomes = []
    for job in probes:
        try:
            output = job.run(None)
        except Exception as exc:  # judged like a timed job that raises
            output = exc
        verdict, reason, _ = judge(job, output)
        outcomes.append({"label": job.label, "verdict": verdict, "reason": reason})
    return outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    build, in_process, _ = WORKLOADS[args.workload]
    jobs, probes = build(args.seed, args.workdir)
    if args.setup_only:
        return 0
    tracer = Tracer() if args.trace else None
    reference = Reference()
    times, failures, bad, rounds = run_rounds(jobs, in_process, args.seconds, tracer,
                                              reference)
    defects = run_probes(probes)
    bad += [f"probe {d['reason']}" for d in defects if d["verdict"] == "bad"]
    # The CLI workload's program runs in child processes; the others in this one.
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result = {
        "untraced": times[False],
        "traced": times[True],
        "failures": dict(failures),
        "bad": bad[:20],
        "rounds": rounds,
        "defects": defects,
        "reference_s": reference.times,
        "groups": [job.group for job in jobs],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["trace"] = {"self_s": tracer.self_s, "counts": tracer.counts}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
