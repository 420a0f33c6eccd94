"""diskdual benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a diskdual checkout; the program is imported from
``src/`` as it stands.  Workloads: duality-suite, growth-large,
oracle-crosscheck and cli-batch (see workloads.py and README.md).

With ``--trace 0`` it reports the end-to-end metrics.  ``setup_s`` is the
median wall time of five fresh interpreters that each import the program and
build the workload's inputs.  The timed jobs then run in one more fresh
interpreter, a closed loop with one client.  No tracing wrapper is installed
in this mode.  Every job time is scaled to the host speed at which the
worker's reference kernel takes ``REFERENCE_S`` (see ``speed_factor``);
``setup_s`` is not, because interpreter start-up and imports follow the
host's speed less closely than the kernel does.  With ``--trace 1`` it reports the per-layer metrics from traced rounds, with
the tracing overhead measured against the untraced rounds of the same run;
those are not scaled.

Human-readable lines come first.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracer import SPAN_NAMES
from workloads import KNOWN_DEFECTS, WORKLOADS

SETUP_REPEATS = 5
# About the 10th percentile of worker.Reference.kernel's time on the 2-vCPU
# Xeon VM where the benchmark was built; job times are scaled to a host on
# which the kernel's 10th percentile takes this long.
REFERENCE_S = 0.0045
REFERENCE_PERCENTILE = 10
WORKER_SLACK_S = 120
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Per-job counts recorded by the tracer, with their units.  The series terms
# (degree x points) and FFT points are computed from argument sizes.
COUNTS = (
    ("duality.reconstruct.probes", "count/job"),
    ("hardy.containers_built", "count/job"),
    ("hardy.container_coeffs", "count/job"),
    ("hardy.series_terms", "count/job"),
    ("spectral.fft_points", "count/job"),
    ("formats.bytes_out", "B/job"),
    ("formats.bytes_in", "B/job"),
    ("cli.import_s", "s/job"),
    ("cli.process_s", "s/job"),
)


def percentile(values, p):
    """Linear interpolation between closest ranks, as numpy.percentile does."""
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_worker(bench_dir, env, timeout, *options):
    """Run worker.py; on timeout kill its whole process group, CLI children too."""
    cmd = [sys.executable, os.path.join(bench_dir, "worker.py"), *options]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(options)}")
    return stdout


def best_times(samples):
    """Each attempt's time replaced by the fastest attempt of the same job.

    Every job runs once or twice per round with the same inputs, so this is
    min-of-k over its repeats in the run.  The same work varies by up to a
    half over seconds on a shared host; the fastest repeat is what the code
    itself costs.
    """
    best = {}
    for key, seconds in samples:
        best[key] = min(seconds, best.get(key, seconds))
    return [best[key] for key, _ in samples], best


def speed_factor(result):
    """REFERENCE_S over the 10th percentile of this run's reference-kernel times.

    The host's speed drifts by up to 1.8x for minutes, which moves every
    job's fastest repeat.  The reference kernel, timed between the jobs,
    moves by about the same factor; scaling by it keeps runs taken in busy
    and calm spells comparable.  A low percentile, like the fastest repeat
    of a job, reflects the host's calm moments in the run.
    """
    return REFERENCE_S / percentile(result["reference_s"], REFERENCE_PERCENTILE)


def end_to_end(result, setup_times, tail_p):
    factor = speed_factor(result)
    seconds = [t * factor for t in best_times(result["untraced"])[0]]
    attempted = len(seconds)
    failed = sum(result["failures"].values())
    tail = percentile(seconds, tail_p)
    beyond = sum(1 for t in seconds if t > tail)
    metrics = {
        "throughput_jobs_per_s": (attempted / sum(seconds), "1/s"),
        "job_p50_s": (statistics.median(seconds), "s"),
        "job_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "ok_fraction": (1.0 - failed / attempted, "fraction"),
    }
    notes = {
        "job_tail_s": f"p{tail_p} of {attempted} jobs, {beyond} beyond it"
                      + ("" if beyond >= 10 else " (fewer than 10: too few jobs)"),
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "throughput_jobs_per_s": f"unscaled {attempted / sum(seconds) * factor:.6g}",
        "job_p50_s": f"unscaled {statistics.median(seconds) / factor:.6g}",
        "ok_fraction": f"failed_fraction {failed / attempted:.4f} = {failed}/{attempted}",
    }
    return metrics, notes


def per_layer(result):
    traced, _ = best_times(result["traced"])
    untraced, _ = best_times(result["untraced"])
    self_s, counts = result["trace"]["self_s"], result["trace"]["counts"]
    jobs = len(traced)
    metrics = {f"{name}.self_s": (self_s.get(name, 0.0) / jobs, "s/job") for name in SPAN_NAMES}
    metrics.update({key: (counts.get(key, 0.0) / jobs, unit) for key, unit in COUNTS})
    traced_rate = jobs / sum(traced)
    untraced_rate = len(untraced) / sum(untraced)
    metrics["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0), "%")
    notes = {"hardy.series_terms": "computed: degree x points",
             "spectral.fft_points": "computed: transform lengths"}
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "diskdual", "__init__.py")):
        print("run.py: no src/diskdual here; run it from the root of a diskdual checkout",
              file=sys.stderr)
        return 2
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.update({name: "1" for name in THREAD_VARIABLES})
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup(repeat):
        began = time.perf_counter()
        run_worker(bench_dir, env, WORKER_SLACK_S, *common, "--setup-only",
                   "--workdir", os.path.join(workdir, f"setup-{repeat}"))
        return time.perf_counter() - began

    # Half the set-ups run before the timed jobs and half after, so that one
    # slow spell on a shared host does not decide their median.
    repeats = 0 if args.trace else SETUP_REPEATS
    try:
        setup_times = [setup(repeat) for repeat in range(repeats // 2)]
        output = run_worker(bench_dir, env, args.seconds + WORKER_SLACK_S, *common,
                            "--workdir", os.path.join(workdir, "run"),
                            "--seconds", str(args.seconds), "--trace", str(args.trace))
        setup_times += [setup(repeat) for repeat in range(repeats // 2, repeats)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    result = json.loads(output.decode().strip().splitlines()[-1])

    tail_p = WORKLOADS[args.workload][2]
    if args.trace:
        metrics, notes = per_layer(result)
    else:
        metrics, notes = end_to_end(result, setup_times, tail_p)
    attempted = len(result["untraced"]) + len(result["traced"])
    failed = sum(result["failures"].values())

    versions = result["versions"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"environment: python {versions['python']}, numpy {versions['numpy']}, "
          f"scipy {versions['scipy']}, nproc {os.cpu_count()}, cpu {cpu_model()}, "
          "BLAS/OpenMP threads pinned to 1 in child processes")
    reference = result["reference_s"]
    print(f"host speed: reference kernel p{REFERENCE_PERCENTILE} "
          f"{percentile(reference, REFERENCE_PERCENTILE) * 1e3:.3f} ms, median "
          f"{statistics.median(reference) * 1e3:.3f} ms over {len(reference)} runs; "
          + ("per-layer times are not scaled" if args.trace else
             f"job times scaled by {speed_factor(result):.4f} "
             f"to the {REFERENCE_S * 1e3:g} ms host"))
    print(f"closed loop, one client: {result['rounds']} rounds of "
          f"{len(result['groups'])} jobs, {attempted} jobs; each job timed as the "
          "fastest of its repeats")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:34s} {value:.6g} {unit}{note}")
    groups = {}
    for index, seconds in best_times(result["untraced"] + result["traced"])[1].items():
        groups.setdefault(result["groups"][index], []).append(seconds)
    print("median job time by size: " + ", ".join(
        f"{group} {statistics.median(values):.4g} s" for group, values in groups.items()))
    print(f"failed_fraction {failed / attempted:.4f} ({failed}/{attempted})")
    for reason, count in result["failures"].items():
        print(f"  {count} x {reason}: {KNOWN_DEFECTS.get(reason, 'unexpected failure')}")
    for reason in result["bad"]:
        print(f"  unexpected: {reason}")
    # The probes are the inputs of the known defects, run once and untimed.
    for probe in result["defects"]:
        state = {"known": "still present", "ok": "fixed"}.get(probe["verdict"], "wrong result")
        key = probe["reason"] if probe["verdict"] == "known" else probe["label"]
        print(f"defect probe {probe['label']}: {state}"
              + (f" ({key}: {KNOWN_DEFECTS[key]})" if key in KNOWN_DEFECTS else ""))

    print(json.dumps({
        "correct": not result["bad"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
