import pytest
from hypothesis import settings

from plorder.exactnum import LatticePreorder, SlopeGroup
from plorder.plante import PlanteEngine, WreathElement
from plorder.plgroup import (
    ball,
    bs_g,
    bs_g_plus,
    f_big_generator,
    tau1,
    thompson_f_pair,
    translation,
)
from plorder.preorders import (
    DiscreteInvariantSet,
    EscapingContext,
    EscapingEngine,
    JumpEngine,
    PrimeJumpEngine,
    RestrictionEngine,
    axioms_report,
)
from plorder.realize import build_frame

# Property tests draw the same examples on every run, and no example fails
# for running long on a slow or throttled machine.
settings.register_profile("plorder", derandomize=True, deadline=None)
settings.load_profile("plorder")


@pytest.fixture(scope="session")
def f_pair():
    return thompson_f_pair()


@pytest.fixture(scope="session")
def bs_gens():
    return {"t": translation(1), "g+": bs_g_plus(0, 2)}


@pytest.fixture(scope="session")
def plante_gens():
    return {"t": WreathElement.shift_by(1), "h0": WreathElement.lamp_at(0)}


@pytest.fixture(scope="session")
def jump_frames(bs_gens):
    """Jump-engine frames keyed by radius (shared: builds are deterministic)."""
    eng = JumpEngine(side="right")
    return {L: build_frame(eng, bs_gens, radius=L) for L in (3, 4, 5, 6)}


@pytest.fixture(scope="session")
def jump_ball6(bs_gens):
    return ball(bs_gens, 6)


@pytest.fixture(scope="session")
def escaping_frames(f_pair):
    a, b = f_pair
    eng = EscapingEngine(EscapingContext())
    return {L: build_frame(eng, {"a": a, "b": b}, radius=L)
            for L in (3, 4, 5, 6)}


@pytest.fixture(scope="session")
def balls5(f_pair, bs_gens, plante_gens):
    """Radius-5 sample balls for the preorder-axiom suites."""
    a, b = f_pair
    f_ball = list(ball({"a": a, "b": b}, 5))
    return {
        # the restriction preorder lives on trivial-right-germ elements
        "fplus": [g for g in f_ball if tau1(g) == 0],
        "f": f_ball,
        "bs2": list(ball(bs_gens, 5)),
        "plq": list(ball({"t": translation(1), "g6": bs_g(0, 6)}, 5)),
        "plante": list(ball(plante_gens, 5, identity=WreathElement.identity())),
    }


@pytest.fixture(scope="session")
def axiom_engines():
    """The five preorder constructions (nine concrete engines)."""
    opp = LatticePreorder([(-1,)])
    return {
        "restriction": (RestrictionEngine(DiscreteInvariantSet(f_big_generator())),
                        "fplus"),
        "jump:right,lex": (JumpEngine(side="right"), "bs2"),
        "jump:right,opp": (JumpEngine(side="right", group=SlopeGroup([2]),
                                      order=opp), "bs2"),
        "jump:left,lex": (JumpEngine(side="left"), "bs2"),
        "jump:left,opp": (JumpEngine(side="left", group=SlopeGroup([2]),
                                     order=opp), "bs2"),
        "prime:2": (PrimeJumpEngine(2), "plq"),
        "prime:3": (PrimeJumpEngine(3), "plq"),
        "plante": (PlanteEngine(), "plante"),
        "escaping": (EscapingEngine(EscapingContext()), "f"),
    }


@pytest.fixture(scope="session")
def axiom_reports(axiom_engines, balls5):
    """axioms_report for every engine, computed once per session."""
    return {name: axioms_report(eng, balls5[key])
            for name, (eng, key) in axiom_engines.items()}


@pytest.fixture(scope="session")
def plante_frames(plante_gens):
    eng = PlanteEngine()
    ident = WreathElement.identity()
    return {L: build_frame(eng, plante_gens, basepoint=ident, radius=L)
            for L in (3, 4, 5, 6)}
