"""Command-line driver.

Subcommands: sign, classify, realize, check, twochain, relators, cancel,
index, plante, okorder.  Exit codes: 0 success, 1 property failure (with a
witness on stderr), 2 input error.

sign, classify and okorder read --word over the engine's generator family,
so every word a frame prints parses back; classify predicts the dynamical
type at the engine's focal end (JumpEngine.side, else the right end) on
the jump, escaping and ok engines.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from .exactnum import LatticePreorder, SlopeGroup, module_index, parse_rational
from .plgroup import (
    HypothesisFailed,
    NoWitness,
    PLMap,
    ball,
    budget_mul,
    bs_g,
    bs_g_minus,
    bs_g_plus,
    f_big_generator,
    tau1,
    thompson_f_pair,
    translation,
    two_chain_witness,
    verify_relators,
)
from .plante import CSet, PlanteEngine, WreathElement, cset_family_cross_free
from .preorders import (
    DiscreteInvariantSet,
    EscapingContext,
    EscapingEngine,
    JumpEngine,
    PrimeJumpEngine,
    RestrictionEngine,
    axioms_report,
)
from .realize import (
    build_frame,
    classify_empirical,
    classify_predicted,
    induced_map,
    orbit_frame,
)
from .symsets import SymbolicEngine, cancellation_check, line_generators


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Word and engine descriptor parsers
# ---------------------------------------------------------------------------

_ATOM = re.compile(
    r"^(?P<name>[A-Za-z][A-Za-z0-9]*[+-]?)"
    r"(?:\((?P<args>[^)]*)\))?"
    r"(?:\^(?P<exp>-?\d+))?$")


def _parse_atoms(text: str, atom):
    """The one word grammar: "*"-separated atoms name(args)^exp, multiplied
    left to right within the work budget; atom(name, args) is the element
    an atom names (args is None without parentheses)."""
    out = None
    for part in text.split("*"):
        m = _ATOM.match(part.strip())
        if not m:
            raise InputError(f"cannot parse atom {part!r}")
        g = atom(m.group("name"), m.group("args")) ** int(m.group("exp") or 1)
        out = g if out is None else budget_mul(out, g)
    return out


def _no_arguments(name: str, args: str | None) -> None:
    if args is not None:
        raise InputError(f"{name} takes no arguments")


def _pl_atom(name: str, args: str | None) -> PLMap:
    if name in ("e", "id", "a", "b", "f0"):
        _no_arguments(name, args)
    vals = [parse_rational(s) for s in args.split(",")] if args else []
    if name in ("e", "id"):
        return PLMap.identity("unit")
    if name in ("a", "b"):
        return dict(zip("ab", thompson_f_pair()))[name]
    if name == "f0":
        return f_big_generator()
    if name == "t":
        if len(vals) != 1:
            raise InputError("t(a) needs one rational argument")
        return translation(vals[0])
    if name in ("g", "g+", "g-"):
        if len(vals) != 2:
            raise InputError(f"{name}(a,lam) needs two rational arguments")
        fn = {"g": bs_g, "g+": bs_g_plus, "g-": bs_g_minus}[name]
        return fn(*vals)
    raise InputError(f"unknown generator {name!r}")


def _wreath_atom(name: str, args: str | None) -> WreathElement:
    if name in ("e", "id", "t", "h0"):
        _no_arguments(name, args)
    if name in ("e", "id"):
        return WreathElement.identity()
    if name == "t":
        return WreathElement.shift_by(1)
    if name == "h0":
        return WreathElement.lamp_at(0)
    if name == "h":
        if not args:
            raise InputError("h(n) needs a position")
        return WreathElement.lamp_at(int(args))
    raise InputError(f"unknown wreath generator {name!r}")


def parse_word(text: str) -> PLMap:
    """Words like "a*b^-1", "t(1)*g+(0,2)^-2", "f0"."""
    return _parse_atoms(text, _pl_atom)


def parse_wreath_word(text: str) -> WreathElement:
    """Words over t (shift by 1) and h(n) / h0 (unit lamp at n / 0)."""
    return _parse_atoms(text, _wreath_atom)


def parse_family_word(text: str, gens: dict):
    """A word over a generator family, as a frame prints it: each atom is a
    family generator under its family name (c, or t(1)), e for the
    family's identity, or else an atom of parse_word (parse_wreath_word for
    wreath families)."""
    some = next(iter(gens.values()))
    identity = some * some.inverse()
    fallback = _wreath_atom if isinstance(some, WreathElement) else _pl_atom

    def atom(name, args):
        label = name if args is None else f"{name}({args})"
        if label in gens:
            return gens[label]
        if name in ("e", "id") and args is None:
            return identity
        return fallback(name, args)

    return _parse_atoms(text, atom)


def _jump_engine(opts):
    """jump[:side][,order]: one side (right, left), one order (lex, opp)."""
    picked = {}
    for o in opts:
        kind = {"right": "side", "left": "side", "lex": "order", "opp": "order"}.get(o)
        if kind is None:
            raise InputError(f"unknown jump option {o!r}")
        if kind in picked:
            raise InputError(f"jump takes one {kind}, got {picked[kind]!r} and {o!r}")
        picked[kind] = o
    order = LatticePreorder([(-1,)]) if picked.get("order") == "opp" else None
    return JumpEngine(picked.get("side", "right"), SlopeGroup([2]), order)


def _prime_engine(opts):
    if len(opts) != 1:
        raise InputError("prime:q needs one prime")
    return PrimeJumpEngine(int(opts[0]))


def _seed(opts) -> Fraction:
    return parse_rational(opts[0]) if opts else Fraction(1, 2)


# name -> (most options, builder of the engine from its options, default family)
_ENGINES = {
    "jump": (2, _jump_engine, "bs2"),
    "restriction": (1, lambda opts: RestrictionEngine(
        DiscreteInvariantSet(f_big_generator(), _seed(opts))), "fplus"),
    "prime": (1, _prime_engine, "bs2"),
    "escaping": (1, lambda opts: EscapingEngine(EscapingContext(s0=_seed(opts))),
                 "thompsonF"),
    "plante": (0, lambda opts: PlanteEngine(), "plante"),
    "ok": (0, lambda opts: SymbolicEngine(), "line"),
}

_DEFAULT_FAMILY = {name: family for name, (_, _, family) in _ENGINES.items()}


def parse_engine(desc: str):
    """Descriptors like "jump:right,lex", "prime:3", "escaping", "plante"."""
    name, _, rest = desc.partition(":")
    if name not in _ENGINES:
        raise InputError(f"unknown engine {desc!r}")
    most, build, _ = _ENGINES[name]
    opts = [o for o in rest.split(",") if o]
    if len(opts) > most:
        raise InputError(f"engine {name!r} takes at most {most} "
                         f"option{'s' * (most != 1)}, got {rest!r}")
    return build(opts)


def _fplus_family() -> dict:
    """Generators of F_+, where the restriction engine lives: a and
    c = b^-1*a*b, both with trivial right germ (tau1 = 0)."""
    a, b = thompson_f_pair()
    return {"a": a, "c": b.inverse() * a * b}


_FAMILIES = {
    "bs2": lambda: {"t(1)": translation(1), "g+(0,2)": bs_g_plus(0, 2)},
    "thompsonF": lambda: dict(zip("ab", thompson_f_pair())),
    "fplus": _fplus_family,
    "line": line_generators,
    "plante": lambda: {"t": WreathElement.shift_by(1),
                       "h0": WreathElement.lamp_at(0)},
}


def _family_for(args) -> dict:
    """The engine's generator family: the plante engine acts on the wreath
    family, every other engine on a family of PLMaps."""
    engine = args.engine.partition(":")[0]
    fam = args.family or _DEFAULT_FAMILY.get(engine)
    if fam not in _FAMILIES:
        raise InputError(f"unknown family {fam!r}")
    if (engine == "plante") != (fam == "plante"):
        raise InputError(f"engine {args.engine!r} does not act on the {fam} family")
    return _FAMILIES[fam]()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sign(args) -> int:
    _frame_radius(args)
    engine = parse_engine(args.engine)
    g = parse_family_word(args.word, _family_for(args))
    print(engine.sign(g).name.capitalize())
    return 0


def _frame_radius(args) -> int:
    """The one check of --radius, for every command that reads it."""
    if args.radius < 1:
        raise InputError(f"--radius must be at least 1, got {args.radius}")
    return args.radius


def cmd_classify(args) -> int:
    radius = _frame_radius(args)
    engine = parse_engine(args.engine)
    gens = _family_for(args)
    g = parse_family_word(args.word, gens)
    frame = orbit_frame(engine, gens, radius)
    emp = classify_empirical(frame, g)
    if args.engine.partition(":")[0] in ("jump", "escaping", "ok"):
        # the engines a prediction sweep covers; escaping and ok, which
        # have no side, are focused at the right end
        pred = classify_predicted(g, getattr(engine, "side", "right"))
        print(f"predicted: {pred}")
    print(f"empirical: {emp}")
    return 0


def _emit_csv(frame, gens, out) -> None:
    import csv
    names = list(gens)
    writer = csv.writer(out)
    writer.writerow(["id", "word", "coordinate"] + [f"image[{n}]" for n in names])
    maps = {n: induced_map(frame, g) for n, g in gens.items()}
    for i in range(len(frame)):
        # the coordinate of a coset is its index in the frame order
        row = [i, frame.word_of(i), i]
        row += [maps[n].get(i, "") for n in names]
        writer.writerow(row)


def _emit_svg(frame, gens, out) -> None:
    n = len(frame)
    width, step = 40 + 12 * n, 12
    colors = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd"]
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{60 + 40 * len(gens)}">',
             f'<line x1="20" y1="30" x2="{width - 20}" y2="30" stroke="black"/>']
    for i in range(n):
        x = 20 + step * i
        lines.append(f'<circle cx="{x}" cy="30" r="2" fill="black">'
                     f'<title>{frame.word_of(i)}</title></circle>')
    for k, (name, g) in enumerate(gens.items()):
        y = 50 + 40 * k
        color = colors[k % len(colors)]
        lines.append(f'<text x="20" y="{y}" font-size="10" fill="{color}">{name}</text>')
        for i, j in induced_map(frame, g).items():
            x1, x2 = 20 + step * i, 20 + step * j
            if i == j:
                continue
            lines.append(f'<path d="M {x1} 30 Q {(x1 + x2) / 2} {y} {x2} 30" '
                         f'fill="none" stroke="{color}" stroke-width="0.7"/>')
    lines.append("</svg>")
    out.write("\n".join(lines) + "\n")


def cmd_realize(args) -> int:
    radius = _frame_radius(args)
    engine = parse_engine(args.engine)
    gens = _family_for(args)
    frame = build_frame(engine, gens, radius=radius)
    emit = _emit_csv if args.emit == "csv" else _emit_svg
    if args.output:
        try:
            out = open(args.output, "w")
        except OSError as e:
            raise InputError(f"cannot write {args.output!r}: {e.strerror}") from None
        with out:
            emit(frame, gens, out)
    else:
        emit(frame, gens, sys.stdout)
    return 0


def cmd_check(args) -> int:
    radius = _frame_radius(args)
    report = {"seed": args.seed, "suites": {}}
    a, b = thompson_f_pair()
    report["suites"]["relators"] = {"pass": verify_relators(a, b)}

    f_ball = list(ball({"a": a, "b": b}, radius))
    bs2_ball = list(ball(_FAMILIES["bs2"](), radius))
    samples = {
        # the restriction preorder lives on the trivial-right-germ subgroup
        "restriction": [g for g in f_ball if tau1(g) == 0],
        "jump:right": bs2_ball, "jump:left": bs2_ball, "escaping": f_ball,
        "plante": list(ball(_FAMILIES["plante"](), radius,
                            identity=WreathElement.identity())),
    }
    ok = report["suites"]["relators"]["pass"]
    for name, sample in samples.items():
        r = axioms_report(parse_engine(name), sample, seed=args.seed)
        report["suites"][f"axioms[{name}]"] = {
            "pass": r["pass"], "samples": r["samples"], "pairs": r["pairs"],
            "failures": [[str(x) for x in f] for f in r["failures"][:3]]}
        ok = ok and r["pass"]
    print(json.dumps(report, indent=2))
    if not ok:
        print("witness: see failures above", file=sys.stderr)
        return 1
    return 0


def cmd_twochain(args) -> int:
    if args.max_power < 1:
        raise InputError(f"--max-power must be at least 1, got {args.max_power}")
    f = parse_word(args.f)
    g = parse_word(args.g)
    try:
        n = two_chain_witness(f, g, max_power=args.max_power)
    except HypothesisFailed as e:
        print(f"hypothesis failed: {e}", file=sys.stderr)
        return 1
    except NoWitness as e:
        print(f"no witness: {e}", file=sys.stderr)
        return 1
    print(n)
    return 0


def cmd_relators(args) -> int:
    if bool(args.a) != bool(args.b):
        raise InputError("give both --a and --b, or neither")
    a, b = (parse_word(args.a), parse_word(args.b)) if args.a else thompson_f_pair()
    if verify_relators(a, b):
        print("true")
        return 0
    print("false")
    print("witness: relator defects are not the identity", file=sys.stderr)
    return 1


def cmd_cancel(args) -> int:
    print("true" if cancellation_check(args.w1, args.w2) else "false")
    return 0


def cmd_index(args) -> int:
    print(module_index(args.p, args.q))
    return 0


def cmd_plante(args) -> int:
    radius = _frame_radius(args)
    engine = PlanteEngine()
    if args.word:
        w = parse_wreath_word(args.word)
        print(w)
        print(f"sign: {engine.sign(w).name.capitalize()}")
        return 0
    # default report: commuting conjugates and cross-free C-sets on a ball
    t = WreathElement.shift_by(1)
    h0 = WreathElement.lamp_at(0)
    hs = [(t ** n) * h0 * (t ** -n) for n in range(radius + 1)]
    commute = all(x * y == y * x for x in hs for y in hs)
    elements = ball({"t": t, "h0": h0}, radius,
                    identity=WreathElement.identity())
    csets = [CSet(sigma, cut) for sigma in list(elements)[:40]
             for cut in range(-1, 2)]
    cross_free = cset_family_cross_free(csets)
    print(json.dumps({"conjugatesCommute": commute,
                      "csetsCrossFree": cross_free,
                      "ball": len(elements)}))
    return 0 if commute and cross_free else 1


def cmd_okorder(args) -> int:
    engine = SymbolicEngine()
    gens = _FAMILIES["line"]()
    g = parse_family_word(args.word, gens)
    if args.versus:
        h = parse_family_word(args.versus, gens)
        kg, kh = engine.key(g), engine.key(h)
        print("Greater" if kg > kh else "Less" if kg < kh else "Equal")
    else:
        print(engine.sign(g).name.capitalize())
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@cache  # built on the first call, not at import
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="plorder",
                                description="Exact PL homeomorphism groups, "
                                            "preorders and realizations.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, word=True):
        sp.add_argument("--engine", default="jump:right,lex",
                        help="engine descriptor, e.g. jump:right,lex / "
                             "escaping / prime:3 / plante / ok")
        sp.add_argument("--family", choices=sorted(_FAMILIES),
                        help="generator family (default depends on engine); "
                             "fplus is {a, c = b^-1*a*b}, line is {t, h}")
        sp.add_argument("--radius", type=int, default=4)
        if word:
            sp.add_argument("--word", required=True, help="element word")

    sp = sub.add_parser("sign", help="sign of an element under an engine")
    common(sp)
    sp.set_defaults(fn=cmd_sign)

    sp = sub.add_parser("classify", help="predicted + empirical dynamics")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("realize", help="emit a sorted orbit frame")
    common(sp, word=False)
    sp.add_argument("--emit", choices=["csv", "svg"], default="csv")
    sp.add_argument("-o", "--output")
    sp.set_defaults(fn=cmd_realize)

    sp = sub.add_parser("check", help="run the property suites")
    sp.add_argument("--radius", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("twochain", help="minimal N with (f, g^N) a 2-chain")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("--max-power", type=int, default=10000)
    sp.set_defaults(fn=cmd_twochain)

    sp = sub.add_parser("relators", help="verify the F presentation relators")
    sp.add_argument("--a")
    sp.add_argument("--b")
    sp.set_defaults(fn=cmd_relators)

    sp = sub.add_parser("cancel", help="independence of a binary word pair")
    sp.add_argument("w1")
    sp.add_argument("w2")
    sp.set_defaults(fn=cmd_cancel)

    sp = sub.add_parser("index", help="module index |A / I_Lambda A| offset")
    sp.add_argument("p", type=int)
    sp.add_argument("q", type=int)
    sp.set_defaults(fn=cmd_index)

    sp = sub.add_parser("plante", help="wreath-product computations")
    sp.add_argument("--word", help="wreath word, e.g. t^2*h0*t^-1")
    sp.add_argument("--radius", type=int, default=3)
    sp.set_defaults(fn=cmd_plante)

    sp = sub.add_parser("okorder", help="symbolic tail-set order queries")
    sp.add_argument("--word", required=True)
    sp.add_argument("--versus", help="second word to compare against")
    sp.set_defaults(fn=cmd_okorder)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:  # InputError and every library input error
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
