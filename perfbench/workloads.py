"""The benchmark's workloads: seeded job lists, job outputs and their checks.

Every workload is a closed loop over a fixed job list that its seed
determines.  A job drives the library or the CLI through public names,
looked up on the module at call time so that the traced run sees them.

- cli-jump: in-process `plorder` CLI calls (classify, realize --emit csv)
  with the four jump engines on BS(2); every call rebuilds its ball and
  frame, so the time goes to frame comparisons and PLMap composition.
- cones-f: cone-axiom sweeps (preorders.axioms_report) on samples of
  radius-5 balls; no frames, larger unit maps and rational slopes.
- wreath-tails: Plante frames, C-set cross-free scans and tail-set images
  and comparisons; no PLMap composition to speak of.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from dataclasses import dataclass
from typing import Callable

from plorder import cli, plante, plgroup, preorders, realize, symsets
from plorder.realize import DynType, consistent

JUMP_ENGINES = ("jump:right,lex", "jump:right,opp", "jump:left,lex", "jump:left,opp")


@dataclass(frozen=True)
class Job:
    label: str                              # identifies the job and its inputs
    run: Callable[[], object]               # the timed work; returns its output
    key: Callable[[object], str]            # canonical text of the output (digested)
    check: Callable[[object], str | None]   # invariant violation, or None


@dataclass
class Plan:
    jobs: list            # timed jobs, in run order
    bad_inputs: list      # untimed jobs that must end in exit 2
    info: dict            # job mix, radii and sample sizes, for the record


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _short(items) -> str:
    return digest(repr(list(items)))[:8]


# ---------------------------------------------------------------------------
# cli-jump
# ---------------------------------------------------------------------------

# (command, radius, jobs) per engine: 40 jobs, so the median and the p75 both
# fall inside the 32 classify-r4 jobs and neither straddles two kinds of job.
# The seed picks the words and the order.
CLI_JUMP_PER_ENGINE = (("classify", 4, 8), ("classify", 5, 1), ("realize", 5, 1))
CLI_WORD_RADIUS = 3

# ROADMAP item 2 cases plus malformed words; each must end in exit 2.
BAD_INPUTS = (
    ["sign", "--engine", "prime:0", "--word", "t(1)"],
    ["sign", "--engine", "prime:1", "--word", "t(1)"],
    ["sign", "--engine", "prime:4", "--word", "t(1)"],
    ["classify", "--radius", "0", "--word", "t(1)"],
    ["classify", "--radius", "-1", "--word", "t(1)"],
    ["sign", "--engine", "escaping", "--word", "a^100000"],
    ["sign", "--engine", "combined", "--word", "g(0,1000000000000000003)"],
    ["sign", "--word", "t(1)**g+(0,2)"],
    ["sign", "--word", "x(1)"],
    ["sign", "--word", "g+(0)"],
    ["sign", "--word", "t(1/0)"],
    ["sign", "--engine", "jump:up", "--word", "t(1)"],
)


def cli_call(argv) -> tuple[int, str]:
    """Run `plorder <argv>` in process; (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects bad arguments this way
            rc = e.code
    return rc, out.getvalue()


def _cli_key(out) -> str:
    rc, text = out
    return f"{rc}\n{text}"


def _verdicts(text: str):
    lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    return DynType(lines["predicted"]), DynType(lines["empirical"])


def _check_classify(out):
    rc, text = out
    if rc != 0:
        return f"exit {rc}"
    pred, emp = _verdicts(text)
    if not consistent(pred, emp):
        return f"empirical {emp} contradicts predicted {pred}"
    return None


def _element(word: str):
    return plgroup.PLMap.identity("line") if word == "e" else cli.parse_word(word)


def _increasing(engine, points):
    for i, (u, v) in enumerate(zip(points, points[1:])):
        if engine.sign(u.inverse() * v) is not preorders.Sign.POSITIVE:
            return f"frame points {i} and {i + 1} are not strictly increasing"
    return None


def _check_realize(engine_desc):
    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit {rc}"
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return _increasing(cli.parse_engine(engine_desc), [_element(row[1]) for row in rows])
    return check


def _check_bad_input(argv):
    radius_zero = argv[:3] == ["classify", "--radius", "0"]

    def check(out):
        rc, text = out
        if rc == 2:
            return None
        if radius_zero and rc == 0 and consistent(*_verdicts(text)):
            return None
        return f"exit {rc}, expected 2"
    return check


def _cli_job(argv, check) -> Job:
    argv = tuple(argv)
    return Job(" ".join(argv), lambda: cli_call(argv), _cli_key, check)


def cli_jump_job(command, engine, radius, word) -> Job:
    argv = [command, "--engine", engine, "--radius", str(radius)]
    if command == "classify":
        return _cli_job(argv + ["--word", word], _check_classify)
    return _cli_job(argv + ["--emit", "csv"], _check_realize(engine))


def cli_jump_words() -> list[str]:
    gens = {"t(1)": plgroup.translation(1), "g+(0,2)": plgroup.bs_g_plus(0, 2)}
    return [w for w in plgroup.ball(gens, CLI_WORD_RADIUS).values() if w]


def setup_cli_jump(seed: int) -> Plan:
    rng = random.Random(f"cli-jump/{seed}")
    words = cli_jump_words()
    specs = []
    for engine in JUMP_ENGINES:
        for command, radius, count in CLI_JUMP_PER_ENGINE:
            specs += [(command, engine, radius)] * count
    rng.shuffle(specs)
    jobs = [cli_jump_job(command, engine, radius, rng.choice(words))
            for command, engine, radius in specs]
    bad = [_cli_job(argv, _check_bad_input(argv)) for argv in BAD_INPUTS]
    # warm-up: argparse, the regex and the lazily imported csv writer
    cli_call(["classify", "--radius", "2", "--word", "t(1)"])
    cli_call(["realize", "--radius", "2"])
    kinds = {}
    for command, _, radius in specs:
        kinds[f"{command} r{radius}"] = kinds.get(f"{command} r{radius}", 0) + 1
    radii = sorted({radius for _, radius, _ in CLI_JUMP_PER_ENGINE})
    return Plan(jobs, bad, {"jobs": kinds, "radii": radii, "engines": list(JUMP_ENGINES),
                            "word_ball_radius": CLI_WORD_RADIUS,
                            "word_pool": len(words), "bad_inputs": len(bad)})


# ---------------------------------------------------------------------------
# cones-f
# ---------------------------------------------------------------------------

# engine -> (sample pool, jobs, samples per job, sampled pairs per job)
CONES_MIX = {
    "escaping": ("f", 40, 8, 40),
    "restriction": ("fplus", 30, 16, 80),
    "prime:2": ("plq", 15, 64, 800),
    "prime:3": ("plq", 15, 64, 800),
}
CONES_RADIUS = 5


def _engine(name: str):
    if name == "escaping":
        return preorders.EscapingEngine(preorders.EscapingContext())
    if name == "restriction":
        return preorders.RestrictionEngine(
            preorders.DiscreteInvariantSet(plgroup.f_big_generator()))
    return preorders.PrimeJumpEngine(int(name.partition(":")[2]))


def _axioms_job(name, pool_name, idx, samples, pairs, sweep_seed) -> Job:
    def run():
        return preorders.axioms_report(_engine(name), samples, pair_limit=pairs,
                                       seed=sweep_seed)

    def key(report):
        return f"{report['pass']} {report['samples']} {report['pairs']}"

    def check(report):
        if not report["pass"]:
            return f"axiom failures: {[f[0] for f in report['failures'][:3]]}"
        if report["samples"] != len(samples) or report["pairs"] != pairs:
            return f"swept {report['samples']} samples / {report['pairs']} pairs"
        return None

    label = (f"axioms {name} on {pool_name}[{_short(idx)}] n={len(samples)} "
             f"pairs={pairs} seed={sweep_seed}")
    return Job(label, run, key, check)


def setup_cones_f(seed: int) -> Plan:
    rng = random.Random(f"cones-f/{seed}")
    a, b = plgroup.thompson_f_pair()
    f_ball = list(plgroup.ball({"a": a, "b": b}, CONES_RADIUS))
    pools = {
        "f": f_ball,
        # the restriction preorder lives on the trivial-right-germ subgroup F_+
        "fplus": [g for g in f_ball if plgroup.tau1(g) == 0],
        "plq": list(plgroup.ball({"t": plgroup.translation(1),
                                  "g6": plgroup.bs_g(0, 6)}, CONES_RADIUS)),
    }
    jobs = []
    for name, (pool_name, count, n, pairs) in CONES_MIX.items():
        pool = pools[pool_name]
        for _ in range(count):
            idx = rng.sample(range(len(pool)), n)
            jobs.append(_axioms_job(name, pool_name, idx, [pool[i] for i in idx],
                                    pairs, rng.randrange(1 << 30)))
    rng.shuffle(jobs)
    # warm-up: one small sweep per engine
    for name, (pool_name, _, _, _) in CONES_MIX.items():
        preorders.axioms_report(_engine(name), pools[pool_name][:4], pair_limit=4)
    return Plan(jobs, [], {
        "jobs": {name: count for name, (_, count, _, _) in CONES_MIX.items()},
        "radii": [CONES_RADIUS],
        "samples_per_job": {name: n for name, (_, _, n, _) in CONES_MIX.items()},
        "pairs_per_job": {name: p for name, (_, _, _, p) in CONES_MIX.items()},
        "pools": {k: len(v) for k, v in pools.items()}})


# ---------------------------------------------------------------------------
# wreath-tails
# ---------------------------------------------------------------------------

# Plante frame jobs: (radius, jobs, sampled elements classified per job)
PLANTE_FRAMES = ((5, 30, 24), (6, 25, 24))
PLANTE_SAMPLE_RADIUS = 5
CSET_JOBS, CSET_SIGMAS, CSET_CUTS = 15, 120, (-2, -1, 0, 1)
TAIL_JOBS, TAIL_ELEMENTS, TAIL_TRIPLES, TAIL_RADIUS = 30, 24, 40, 4


def _wreath_gens():
    return {"t": plante.WreathElement.shift_by(1), "h0": plante.WreathElement.lamp_at(0)}


def _plante_job(radius, idx, elements) -> Job:
    identity = plante.WreathElement.identity()

    def run():
        frame = realize.build_frame(plante.PlanteEngine(), _wreath_gens(),
                                    basepoint=identity, radius=radius)
        words = [frame.word_of(i) for i in range(len(frame))]
        return words, [str(realize.classify_empirical(frame, w)) for w in elements]

    def check(out):
        return _increasing(plante.PlanteEngine(), [cli.parse_wreath_word(w) for w in out[0]])

    return Job(f"plante frame r{radius} classify [{_short(idx)}] n={len(elements)}",
               run, repr, check)


def _cset_job(idx, sigmas) -> Job:
    def run():
        return plante.cset_family_cross_free(
            [plante.CSet(s, cut) for s in sigmas for cut in CSET_CUTS])

    return Job(f"csets [{_short(idx)}] sigmas={len(sigmas)} cuts={len(CSET_CUTS)}",
               run, repr, lambda ok: None if ok else "C-set family crosses")


def _tails_job(base, idx, elements, triples) -> Job:
    def run():
        images = [base.image(g) for g in elements]
        out = []
        for i, j, k in triples:
            A, B, C = images[i], images[j], images[k]
            out.append((symsets.ok_compare(A, B), symsets.ok_compare(B, A),
                        symsets.alpha(A, B), symsets.alpha(A, C), symsets.alpha(C, B)))
        return out

    def check(out):
        for s_ab, s_ba, a_ab, a_ac, a_cb in out:
            if s_ab != -s_ba:
                return "ok_compare is not antisymmetric"
            if a_ab > max(a_ac, a_cb):
                return "alpha is not ultrametric"
        return None

    return Job(f"tails [{_short(idx)}] n={len(elements)} triples [{_short(triples)}]",
               run, lambda out: repr([tuple(map(str, r)) for r in out]), check)


def setup_wreath_tails(seed: int) -> Plan:
    rng = random.Random(f"wreath-tails/{seed}")
    identity = plante.WreathElement.identity()
    wball = list(plgroup.ball(_wreath_gens(), PLANTE_SAMPLE_RADIUS, identity=identity))
    lball = list(plgroup.ball(symsets.line_generators(), TAIL_RADIUS))
    base = symsets.TailSet.base()
    jobs = []
    for radius, count, n in PLANTE_FRAMES:
        for _ in range(count):
            idx = rng.sample(range(len(wball)), n)
            jobs.append(_plante_job(radius, idx, [wball[i] for i in idx]))
    for _ in range(CSET_JOBS):
        idx = rng.sample(range(len(wball)), CSET_SIGMAS)
        jobs.append(_cset_job(idx, [wball[i] for i in idx]))
    for _ in range(TAIL_JOBS):
        idx = rng.sample(range(len(lball)), TAIL_ELEMENTS)
        triples = [tuple(rng.randrange(TAIL_ELEMENTS) for _ in range(3))
                   for _ in range(TAIL_TRIPLES)]
        jobs.append(_tails_job(base, idx, [lball[i] for i in idx], triples))
    rng.shuffle(jobs)
    # warm-up: one small job of each kind
    _plante_job(3, [], wball[:2]).run()
    _cset_job([], wball[:4]).run()
    _tails_job(base, [], lball[:2], [(0, 1, 0)]).run()
    return Plan(jobs, [], {
        "jobs": {"plante frame r5": PLANTE_FRAMES[0][1], "plante frame r6": PLANTE_FRAMES[1][1],
                 "csets": CSET_JOBS, "tails": TAIL_JOBS},
        "radii": [r for r, _, _ in PLANTE_FRAMES],
        "classified_per_frame": PLANTE_FRAMES[0][2],
        "wreath_sample_ball": {"radius": PLANTE_SAMPLE_RADIUS, "size": len(wball)},
        "csets_per_job": CSET_SIGMAS * len(CSET_CUTS),
        "tails": {"line_ball_radius": TAIL_RADIUS, "pool": len(lball),
                  "elements_per_job": TAIL_ELEMENTS, "triples_per_job": TAIL_TRIPLES}})


WORKLOADS = {
    "cli-jump": setup_cli_jump,
    "cones-f": setup_cones_f,
    "wreath-tails": setup_wreath_tails,
}
