import csv
import hashlib
import json

import pytest

from plorder.cli import (
    _DEFAULT_FAMILY,
    _FAMILIES,
    main,
    parse_engine,
    parse_family_word,
    parse_word,
    parse_wreath_word,
)
from plorder.plante import WreathElement
from plorder.plgroup import bs_g_plus, translation
from plorder.realize import build_frame


class TestParsers:
    def test_parse_word(self):
        g = parse_word("t(1)*g+(0,2)^-2")
        assert g == translation(1) * bs_g_plus(0, 2) ** -2
        assert parse_word("f0").model == "unit"
        assert parse_word("t(3/2^2)*g+(1/2^-1,2)") == parse_word("t(3/4)*g+(2,2)")

    def test_parse_word_rejects_garbage(self):
        from plorder.cli import InputError
        with pytest.raises(InputError):
            parse_word("q*z")
        with pytest.raises(InputError):
            parse_word("t(1,2)")
        with pytest.raises(InputError):
            parse_word("e(0)")

    def test_parse_wreath_word(self):
        w = parse_wreath_word("t^2*h0*t^-1")
        t = WreathElement.shift_by(1)
        h0 = WreathElement.lamp_at(0)
        assert w == t ** 2 * h0 * t ** -1

    def test_parse_engine(self):
        assert "JumpEngine" in repr(parse_engine("jump:left,opp"))
        assert "PrimeJumpEngine" in repr(parse_engine("prime:3"))
        assert "EscapingEngine" in repr(parse_engine("escaping:1/2"))


class TestCommands:
    def test_index(self, capsys):
        assert main(["index", "3", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_index_closed_form(self, capsys):
        # residue enumeration grew quadratically in p - q; the closed form does not
        assert main(["index", "1000001", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1000000"

    def test_index_rejects_bad_pair(self, capsys):
        assert main(["index", "2", "2"]) == 2

    def test_cancel(self, capsys):
        assert main(["cancel", "10001", "01110"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["cancel", "01", "10"]) == 0
        assert capsys.readouterr().out.strip() == "false"
        assert main(["cancel", "01", "011"]) == 2
        # the cancellation automaton is exact: there is no search bound
        with pytest.raises(SystemExit):
            main(["cancel", "0", "1", "--bound", "20"])

    def test_sign(self, capsys):
        assert main(["sign", "--engine", "jump:right,lex",
                     "--word", "g-(0,2)"]) == 0
        assert capsys.readouterr().out.strip() == "Positive"
        assert main(["sign", "--engine", "escaping", "--word", "f0"]) == 0
        assert capsys.readouterr().out.strip() == "Residue"
        assert main(["sign", "--engine", "plante", "--word", "t*h0*t^-1"]) == 0
        assert capsys.readouterr().out.strip() == "Positive"
        assert main(["sign", "--word", "t(3/4)"]) == 0
        expected = capsys.readouterr().out
        assert main(["sign", "--word", "t(3/2^2)"]) == 0
        assert capsys.readouterr().out == expected

    def test_relators(self, capsys):
        assert main(["relators"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["relators", "--a", "a", "--b", "a"]) == 1

    def test_twochain(self, capsys):
        assert main(["twochain", "f0", "f0"]) == 1  # hypothesis violated

    def test_classify(self, capsys):
        assert main(["classify", "--engine", "jump:right,lex",
                     "--radius", "4", "--word", "t(1)"]) == 0
        out = capsys.readouterr().out
        assert "predicted: Homothety(expanding)" in out
        assert "empirical:" in out

    def test_check_report(self, capsys):
        assert main(["check", "--radius", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suites"]["relators"]["pass"]
        assert all(s["pass"] for s in report["suites"].values())

    def test_plante_report(self, capsys):
        assert main(["plante", "--radius", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conjugatesCommute"] and report["csetsCrossFree"]

    @pytest.mark.parametrize("radius, ball", [(3, 53), (4, 153)])
    def test_plante_report_is_frozen(self, radius, ball, capsys):
        assert main(["plante", "--radius", str(radius)]) == 0
        assert capsys.readouterr().out == (
            '{"conjugatesCommute": true, "csetsCrossFree": true, '
            f'"ball": {ball}}}\n')

    def test_okorder(self, capsys):
        assert main(["okorder", "--word", "h^-1"]) == 0
        assert capsys.readouterr().out.strip() == "Positive"
        assert main(["okorder", "--word", "t", "--versus", "h"]) == 0
        assert capsys.readouterr().out.strip() == "Greater"

    def test_realize_csv(self, capsys, tmp_path):
        out = tmp_path / "frame.csv"
        assert main(["realize", "--engine", "jump:right,lex",
                     "--radius", "3", "--emit", "csv", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["id", "word", "coordinate"]
        assert len(lines) > 20
        # the coordinate of a coset is its index in the frame order
        rows = list(csv.reader(lines[1:]))
        assert [r[2] for r in rows] == [str(i) for i in range(len(rows))]

    def test_realize_svg(self, tmp_path):
        out = tmp_path / "frame.svg"
        assert main(["realize", "--engine", "plante",
                     "--radius", "3", "--emit", "svg", "-o", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    @pytest.mark.parametrize("engine, family, rows", [
        ("restriction", "fplus", 28), ("ok", "line", 27)])
    def test_default_family_is_in_domain(self, engine, family, rows, capsys):
        # each engine's default family lies inside the engine's domain
        assert main(["realize", "--engine", engine, "--radius", "3"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == rows + 1
        assert main(["realize", "--engine", engine, "--family", family,
                     "--radius", "3"]) == 0
        assert capsys.readouterr().out == out

    def test_classify_restriction_and_ok(self, capsys):
        assert main(["classify", "--engine", "restriction", "--radius", "3",
                     "--word", "b^-1*a*b"]) == 0
        assert "empirical:" in capsys.readouterr().out
        assert main(["classify", "--engine", "ok", "--radius", "3",
                     "--word", "t(1)"]) == 0
        assert "empirical: Homothety(expanding)" in capsys.readouterr().out

    def test_classify_predicts_at_the_focal_end(self, capsys):
        # jump:left is focused at -infinity, where t(1) moves points away
        assert main(["classify", "--engine", "jump:left,lex", "--radius", "4",
                     "--word", "t(1)"]) == 0
        assert capsys.readouterr().out == (
            "predicted: Homothety(contracting)\n"
            "empirical: Homothety(contracting)\n")


# sha256 of `plorder realize --radius 3 --emit csv` per engine, recorded
# before frames became sorted keys; the frames must not change.
FROZEN_REALIZE_CSV = {
    "jump:right,lex": "c64853e324a9e5eaac19dcfb33855869ac2501885a28bea31c5fac7a7bd8da97",
    "jump:right,opp": "6b19f9e1e1209ea309b35561be9b1e31abfc511393dc97e9eeb91640de1e1227",
    "jump:left,lex": "1064dd9800132bd87b4f0b6e21d8fbfe40e68d46c5f0f49bf8a9cfe52f151f8b",
    "jump:left,opp": "66dba02366072cf3c2b0108d5df4ac7251730bf071a81bcc32ac19773e519b55",
    "prime:2": "0c549b8b82bee0c8e329b6617bfe77335b99cc5c7f3ac691bd3ca2fdb3da4519",
    "prime:3": "c5b92b5eb3967b967c3658fd4cc04bbf484815c92556e1334fe4eb48fd702135",
    "escaping": "39515a29f08cf26d66d70319f76309d0c8f1a40ec4a4a607e642859cede89610",
    "plante": "a94c1d0ed48ec6f85d044457659cd473ea74012eaed688cf9f4802f77b16c925",
}


@pytest.mark.parametrize("engine", sorted(FROZEN_REALIZE_CSV))
def test_realize_csv_is_frozen(engine, capsys):
    assert main(["realize", "--engine", engine, "--radius", "3", "--emit", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_REALIZE_CSV[engine]


@pytest.mark.parametrize("engine", sorted(FROZEN_REALIZE_CSV) + ["restriction", "ok"])
def test_realize_words_parse_back(engine, capsys):
    # every word a frame prints names an element of that row's coset, and
    # sign and classify accept it
    assert main(["realize", "--engine", engine, "--radius", "3", "--emit", "csv"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))[1:]
    eng = parse_engine(engine)
    gens = _FAMILIES[_DEFAULT_FAMILY[engine.partition(":")[0]]]()
    frame = build_frame(eng, gens, radius=3)
    assert len(rows) == len(frame)
    for row in rows:
        assert eng.key(parse_family_word(row[1], gens)) == frame.keys[int(row[0])]
        assert main(["sign", "--engine", engine, "--word", row[1]]) == 0
        assert main(["classify", "--engine", engine, "--radius", "3",
                     "--word", row[1]]) == 0


class TestBadInput:
    """Bad engine parameters and radii end in exit 2 with a reason."""

    def _rejects(self, argv, capsys, reason):
        assert main(argv) == 2
        assert reason in capsys.readouterr().err

    def test_prime_zero(self, capsys):
        self._rejects(["sign", "--engine", "prime:0", "--word", "t(1)"], capsys,
                      "needs a prime")

    def test_prime_one(self, capsys):
        self._rejects(["sign", "--engine", "prime:1", "--word", "t(1)"], capsys,
                      "needs a prime")

    def test_prime_composite(self, capsys):
        self._rejects(["sign", "--engine", "prime:4", "--word", "t(1)"], capsys,
                      "needs a prime")

    def test_classify_radius_zero(self, capsys):
        self._rejects(["classify", "--radius", "0", "--word", "t(1)"], capsys,
                      "--radius must be at least 1")

    def test_classify_radius_negative(self, capsys):
        self._rejects(["classify", "--radius", "-1", "--word", "t(1)"], capsys,
                      "--radius must be at least 1")

    def test_realize_radius_zero(self, capsys):
        self._rejects(["realize", "--radius", "0"], capsys,
                      "--radius must be at least 1")

    @pytest.mark.parametrize("word", ["g-(0,2)", "t(1)"])
    def test_restriction_rejects_line_maps(self, word, capsys):
        # g-(0,2) used to hang scanning K below its breakpoint 0
        self._rejects(["sign", "--engine", "restriction", "--word", word], capsys,
                      "unit-interval maps only")

    def test_combined_engine_is_gone(self, capsys):
        self._rejects(["sign", "--engine", "combined", "--word", "t(1)"], capsys,
                      "unknown engine")

    def test_exponent_over_budget(self, capsys):
        # the parse alone used to build a 125 MB denominator
        self._rejects(["sign", "--word", "t(1/2^1000000000)"], capsys,
                      "exceeds the budget")

    def test_horograding_is_gone(self, capsys):
        # the focal end belongs to the engine, not to an option
        with pytest.raises(SystemExit) as e:
            main(["classify", "--engine", "jump:left,lex", "--word", "t(1)",
                  "--horograding", "decreasing"])
        assert e.value.code == 2
        assert "unrecognized arguments: --horograding" in capsys.readouterr().err

    def test_jump_rejects_any_slope_outside_two(self, capsys):
        # the outermost jump (slope 2 at 1) alone would read Negative
        self._rejects(["sign", "--word", "g+(0,3)*g+(1,2)"], capsys,
                      "not available")

    # atoms that take no arguments used to drop any they were given
    def test_f0_takes_no_arguments(self, capsys):
        self._rejects(["sign", "--engine", "escaping", "--word", "f0(7,8)"], capsys,
                      "f0 takes no arguments")

    def test_e_takes_no_arguments(self, capsys):
        self._rejects(["sign", "--word", "e(5)"], capsys, "e takes no arguments")

    def test_id_takes_no_arguments(self, capsys):
        self._rejects(["plante", "--word", "id(1)*t"], capsys, "id takes no arguments")

    def test_wreath_t_takes_no_arguments(self, capsys):
        # t(5) read as a shift by 1
        self._rejects(["plante", "--word", "t(5)"], capsys, "t takes no arguments")

    def test_h0_takes_no_arguments(self, capsys):
        self._rejects(["plante", "--word", "h0(3)"], capsys, "h0 takes no arguments")
