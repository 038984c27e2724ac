"""plorder benchmark: one workload per process, one thread, stdlib only.

    python3 perfbench/run.py --workload cli-jump --seed 0 --seconds 30 --trace 0

Runs the workload's fixed job list (a closed loop) as many whole passes as
fit in --seconds, checks every job's output, and prints the metrics as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs untraced passes in
the first half of --seconds, then one traced pass, and reports the per-layer
metrics and trace.overhead.  Details (environment, job mix, failures, and in
traced runs the spans) go to .bench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 5
JOB_BUDGET_S = 60.0          # a timed job that runs longer has failed
BAD_INPUT_BUDGET_S = 1.0     # bad input must be rejected quickly
RUN_DEADLINE_S = 150.0       # no job starts later than this after process start
TAIL_BEYOND = 10             # job_tail_ms: highest percentile with 10 jobs beyond

clock = time.perf_counter
T_START = clock()


class Overrun(BaseException):
    """Raised by the interval timer when a job exceeds its budget.

    A BaseException, so that no `except Exception` in the library absorbs it.
    """


def _on_alarm(signum, frame):
    raise Overrun()


def execute(job, budget, tracer=None):
    """(seconds, output, failure reason or None) for one job."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = clock()
    try:
        out = tracer.job(job.label, job.run) if tracer else job.run()
    except Overrun:
        return clock() - t0, None, f"overran its {budget:g} s budget"
    except Exception as e:  # any exception is a failed job, not a failed run
        return clock() - t0, None, f"raised {type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return clock() - t0, out, None


def run_pass(jobs, tracer=None, keep_outputs=False):
    """One pass over the job list.

    Returns (wall seconds, latencies, output digests, outputs, failures).
    Outputs are kept only when asked, so memory does not grow with passes.
    """
    from workloads import digest
    latencies, digests, outputs, failures = [], [], [], {}
    t0 = clock()
    for i, job in enumerate(jobs):
        if clock() - T_START > RUN_DEADLINE_S:
            failures.update((j, "not started: run deadline passed")
                            for j in range(i, len(jobs)))
            break
        dt, out, why = execute(job, JOB_BUDGET_S, tracer)
        latencies.append(dt)
        digests.append(None if why else digest(job.key(out)))
        if keep_outputs:
            outputs.append(out)
        if why:
            failures[i] = why
    return clock() - t0, latencies, digests, outputs, failures


def tail(sorted_values, per_pass):
    """Nearest-rank percentile (per_pass - TAIL_BEYOND) / per_pass: with one
    pass of per_pass jobs, exactly TAIL_BEYOND latencies lie beyond it."""
    n = len(sorted_values)
    rank = -(-(per_pass - TAIL_BEYOND) * n // per_pass)  # ceil, in integers
    return sorted_values[max(rank, 1) - 1]


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit(), "seed": seed}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference(workload, seed):
    """(digests of this seed's job outputs or None, {label: failure at the seed})."""
    data = json.loads(REFERENCE.read_text())
    return data["digests"][workload].get(str(seed)), data["known_failures"]


def check(job, out):
    """The job's invariant check; a check that raises counts as failed."""
    try:
        return job.check(out)
    except Exception as e:  # output too malformed to check is wrong output
        return f"check raised {type(e).__name__}: {e}"


def judge(plan, passes, bad_results, ref_digests, known):
    """[(job label, display name, failure reason)] for every failed job.

    A timed job fails when a pass failed it or its passes disagree.
    Otherwise a job that failed at the seed commit is judged by its
    invariants (so a fix shows); any other job must reproduce the seed
    commit's output digest when one is stored for this seed, and satisfy
    its invariants when not.
    """
    failures = {}
    for *_, pass_failures in passes:
        for i, why in pass_failures.items():
            failures.setdefault(i, why)
    for i, job in enumerate(plan.jobs):
        if i in failures:
            continue
        seen = {digests[i] for _, _, digests, _, _ in passes}
        if len(seen) > 1:
            failures[i] = "output differs between passes"
        elif ref_digests is None or job.label in known:
            failures[i] = check(job, passes[0][3][i])
        elif seen != {ref_digests[i]}:
            failures[i] = "output differs from the seed commit's"
    result = [(plan.jobs[i].label, f"#{i} {plan.jobs[i].label}", why)
              for i, why in sorted(failures.items()) if why]
    for job, (_, out, why) in zip(plan.bad_inputs, bad_results):
        why = why or check(job, out)
        if why:
            result.append((job.label, job.label, why))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["cli-jump", "cones-f", "wreath-tails"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (SRC / "plorder").is_dir():
        print(f"error: no plorder sources at {SRC}", file=sys.stderr)
        return 2
    t0 = clock()
    sys.path.insert(0, str(SRC))
    import workloads  # imports plorder
    import_s = clock() - t0

    setup = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        plan = setup(args.seed)
        setup_times.append(clock() - t0)
    jobs = plan.jobs
    ref_digests, known = load_reference(args.workload, args.seed)

    # timed passes: whole passes only, while the next one is expected to fit
    window = args.seconds / 2 if args.trace else args.seconds
    passes = []
    t_measure = clock()
    while True:
        passes.append(run_pass(jobs, keep_outputs=not passes))
        typical = statistics.median(w for w, *_ in passes)
        if clock() - t_measure + typical > window:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(jobs, tracer))
        finally:
            tracer.unpatch()

    bad_results = [execute(job, BAD_INPUT_BUDGET_S) for job in plan.bad_inputs]
    failures = judge(plan, passes, bad_results, ref_digests, known)
    unknown = [name for label, name, _ in failures if label not in known]
    attempted = len(jobs) + len(plan.bad_inputs)
    failed = len(failures)
    correct = not unknown

    untraced = passes[:-1] if args.trace else passes
    walls = [w for w, *_ in untraced]
    lat = sorted(x for _, lats, *_ in untraced for x in lats)
    tail_ms = 1000 * tail(lat, len(jobs))
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead"] = {"value": passes[-1][0] / statistics.median(walls),
                                     "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "job_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "job_tail_ms": {"value": tail_ms, "unit": "ms"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    detail = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": environment(args.seed), "plan": plan.info,
        "timed_jobs": len(jobs), "passes": len(untraced),
        "pass_walls_s": walls, "setup_runs_s": setup_times, "import_s": import_s,
        "job_tail_percentile": round(100 * (1 - TAIL_BEYOND / len(jobs)), 1),
        "latency_samples": len(lat),
        "beyond_tail": sum(1 for x in lat if 1000 * x > tail_ms),
        "first_pass_ms": [[f"#{i} {job.label}", 1000 * dt]
                          for i, (job, dt) in enumerate(zip(jobs, passes[0][1]))],
        "reference": "digests" if ref_digests is not None else "invariants",
        "failures": {name: why for _, name, why in failures},
        "failures_not_known_at_seed": unknown,
        "metrics": metrics,
    }
    if tracer:
        detail["trace"] = tracer.dump()
    OUT_DIR.mkdir(exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / out_name).write_text(json.dumps(detail, indent=1, default=str))

    env = detail["env"]
    print(f"plorder benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"commit {env['commit'][:12]}")
    print(f"plan: {json.dumps(plan.info)}")
    print(f"passes: {len(untraced)} untraced of {len(jobs)} jobs"
          + (", 1 traced" if args.trace else "")
          + f"; job_tail_ms is p{detail['job_tail_percentile']} of "
            f"{len(lat)} job latencies ({detail['beyond_tail']} beyond)")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(f"check: {'correct' if correct else 'NOT CORRECT'} (timed jobs checked by "
          f"{detail['reference']}); {failed} of {attempted} jobs failed, "
          f"{failed - len(unknown)} of them as at the seed commit")
    for _, name, why in failures:
        print(f"  {'FAIL' if name in unknown else 'fail (as at seed)'} {name}: {why}")
    print(f"details: {OUT_DIR.name}/{out_name}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
