"""Regenerate perfbench/reference.json from the checkout's current code.

    python3 perfbench/make_reference.py

Records, for the default seeds, the digest of every timed job's output,
and, as known failures, every job that fails its check: the bad-input jobs,
the default seeds' jobs, and every classify/realize job cli-jump can draw
(its job universe is small enough to cover, so any seed is judged against
the same known failures).  Run it only at a commit whose outputs are to be
the reference; the benchmark then flags any other output as a failure.
"""

from __future__ import annotations

import json
import sys

import run

DEFAULT_SEEDS = range(11)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    results = {}  # label -> (output digest, failure or None); a label fixes the inputs

    def result(job):
        if job.label not in results:
            out = job.run()
            results[job.label] = (workloads.digest(job.key(out)), run.check(job, out))
        return results[job.label]

    words = workloads.cli_jump_words()
    kinds = {(c, r) for c, r, _ in workloads.CLI_JUMP_PER_ENGINE}
    for command, radius in sorted(kinds):
        for engine in workloads.JUMP_ENGINES:
            for word in (words if command == "classify" else words[:1]):
                result(workloads.cli_jump_job(command, engine, radius, word))
        print(f"cli-jump universe: {command} r{radius} done", file=sys.stderr)

    digests, bad_inputs = {}, {}
    for name, setup in workloads.WORKLOADS.items():
        digests[name] = {}
        for seed in DEFAULT_SEEDS:
            plan = setup(seed)
            digests[name][str(seed)] = [result(job)[0] for job in plan.jobs]
            bad_inputs.update((job.label, job) for job in plan.bad_inputs)
            print(f"{name} seed {seed} done", file=sys.stderr)
    known = {label: why for label, (_, why) in results.items() if why}
    for job in bad_inputs.values():
        _, out, why = run.execute(job, run.BAD_INPUT_BUDGET_S)
        why = why or run.check(job, out)
        if why:
            known[job.label] = why

    data = {"commit": run.git_commit(), "default_seeds": list(DEFAULT_SEEDS),
            "known_failures": dict(sorted(known.items())), "digests": digests}
    run.REFERENCE.write_text(json.dumps(data, indent=0) + "\n")
    print(f"{len(known)} known failures; wrote {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
