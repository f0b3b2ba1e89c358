import io
import sys

import pytest

from qborel.cli import main
from qborel.coeffring import parse_coefficient


def run_cli(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_relations_pass():
    code, out = run_cli(["relations", "--family", "A", "--n", "2", "--r", "1",
                         "--height", "3"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CHECK")]
    assert lines and all(" PASS" in l for l in lines)


def test_relations_quartic_A1():
    code, out = run_cli(["relations", "--family", "A", "--n", "1", "--r", "1",
                         "--height", "6"])
    assert code == 0
    assert any("serre-0-1" in l and " PASS" in l for l in out.splitlines())


def test_lweight_pos_and_neg():
    code, out = run_cli(["lweight", "--family", "A", "--n", "3", "--r", "2",
                         "--K", "4", "--format", "text"])
    assert code == 0
    assert "-q^-5*a + q^-3*a" in out
    code, out = run_cli(["lweight", "--family", "D", "--n", "4", "--r", "4",
                         "--model", "neg", "--K", "4", "--format", "text"])
    assert code == 0
    assert "[geometric]" in out and "CHECK lweight-neg-D4r4-K4 PASS" in out


def test_character_command():
    code, out = run_cli(["character", "--family", "A", "--n", "4", "--r", "2",
                         "--height", "8"])
    assert code == 0
    assert "CHECK character-A4r2-h8 PASS" in out


def test_character_box_is_checked_and_named():
    # the height-8 default covers 64 weights of A3r2; the box only 5
    code, out = run_cli(["character", "--family", "A", "--n", "3", "--r", "2",
                         "--bound", "1,1,1"])
    assert code == 0
    assert out == "CHECK character-A3r2-b1,1,1 PASS 5 weights\n"


def test_braid_command():
    code, out = run_cli(["braid", "--family", "D", "--n", "5", "--r", "5"])
    assert code == 0
    assert "readings-equivalent PASS" in out


@pytest.mark.parametrize("family, n, r", [("A", 3, 2), ("A", 4, 2),
                                          ("D", 5, 1), ("D", 5, 5)])
def test_braid_inversion_set_of_another_element_fails(family, n, r,
                                                       monkeypatch):
    # dropping the last letter keeps the word reduced, but its inversion
    # set misses theta, a root of Delta^+(w_r)
    from qborel import cli
    from qborel.rootdata import AffineType, reduced_word_wr, root_str, theta
    t = AffineType(family, n, r)
    word = reduced_word_wr(t)
    monkeypatch.setattr(cli, "reduced_word_wr", lambda _: word[:-1])
    code, out = run_cli(["braid", "--family", family, "--n", str(n),
                         "--r", str(r)])
    assert code == 1
    assert (f"CHECK braid-{t}-inversion-set FAIL {len(word) - 1} roots; "
            f"not in both: {root_str(t, theta(t))}\n") in out


def test_rank1_and_recurrence():
    code, out = run_cli(["rank1"])
    assert code == 0
    code, out = run_cli(["recurrence", "--family", "D", "--n", "6", "--r", "6",
                         "--model", "neg", "--K", "10"])
    assert code == 0
    assert "closed-form residuals all 0" in out


def test_invalid_type_is_failure_exit():
    code, out = run_cli(["braid", "--family", "D", "--n", "5", "--r", "2"])
    assert code == 1
    assert "FAIL" in out


def test_unexpected_exception_keeps_traceback(capsys):
    code, out = run_cli(["braid", "--family", "D", "--n", "5", "--r", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert out == "CHECK braid FAIL ValueError: bad type D5r2\n"
    assert err.startswith("Traceback (most recent call last):")
    assert err.rstrip().endswith("ValueError: bad type D5r2")


def test_reports_are_deterministic():
    args = ["relations", "--family", "A", "--n", "3", "--r", "2",
            "--height", "4", "--seed", "7"]
    _, out1 = run_cli(args)
    _, out2 = run_cli(args)
    assert out1 == out2


def test_output_file(tmp_path):
    path = tmp_path / "report.txt"
    code, out = run_cli(["braid", "--family", "A", "--n", "4", "--r", "2",
                         "--output", str(path)])
    assert code == 0
    assert out == ""
    assert "PASS" in path.read_text()


def test_malformed_box_bound_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["relations", "--family", "A", "--n", "2", "--r", "1",
              "--bound", "1,x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "CHECK" not in captured.out
    assert "invalid box value: '1,x'" in captured.err


def test_box_bound_of_wrong_length_is_failure_exit():
    code, out = run_cli(["relations", "--family", "A", "--n", "2", "--r", "1",
                         "--bound", "1,1,1,1,1"])
    assert code == 1
    assert out.startswith("CHECK relations FAIL ValueError: box bound has 5")


@pytest.mark.parametrize("command", ["relations", "character"])
def test_negative_height_is_failure_exit(command):
    code, out = run_cli([command, "--family", "A", "--n", "2", "--r", "1",
                         "--height", "-1"])
    assert code == 1
    assert out == (f"CHECK {command} FAIL ValueError: "
                   "height cap must be nonnegative\n")


@pytest.mark.parametrize("argv, message", [
    (["recurrence", "--model", "pos", "--K", "0"], "K must be >= 1"),
    (["recurrence", "--model", "neg", "--K", "-3"], "K must be >= 1"),
    (["lweight", "--model", "neg", "--K", "0"], "K must be >= 1"),
    (["lweight", "--model", "pos", "--K", "-3"], "K must be >= 1"),
    (["rank1", "--height", "-1"], "M must be >= 0"),
], ids=["recurrence-pos", "recurrence-neg", "lweight-neg", "lweight-pos",
        "rank1"])
def test_invalid_level_is_failure_exit(argv, message):
    code, out = run_cli(argv + ["--family", "A", "--n", "3", "--r", "2"])
    assert code == 1
    assert out == f"CHECK {argv[0]} FAIL ValueError: {message}\n"


def test_exit_code_comes_from_reports(monkeypatch):
    from qborel import cli
    from qborel.opalg import CheckReport
    monkeypatch.setattr(cli, "character_identity_check",
                        lambda t, h, bound=None:
                        CheckReport("character-x", True, "no FAIL here"))
    code, out = run_cli(["character", "--family", "A", "--n", "2", "--r", "1"])
    assert out == "CHECK character-x PASS no FAIL here\n"
    assert code == 0


def test_recurrence_pos_checks_gamma_1(monkeypatch):
    # E_{d-a_r} read at a node other than r: gamma_1 = 0 and the tail is
    # still zero, so only the comparison of gamma_1 can fail the job
    from qborel.drinfeld import CurrentEngine
    E1 = CurrentEngine._E1
    monkeypatch.setattr(CurrentEngine, "_E1",
                        lambda self, i, terms: E1(self, i % 3 + 1, terms))
    code, out = run_cli(["recurrence", "--family", "A", "--n", "3", "--r", "2",
                         "--model", "pos", "--format", "text"])
    assert code == 1
    assert out.startswith("gamma_1 = 0\n")
    assert out.endswith("CHECK recurrence-pos-A3r2-K6 FAIL "
                        "gamma_1 = 0, expected q^-2*a\n")


def test_relations_with_height_and_bound_applies_both():
    from qborel.latticemod import get_module
    from qborel.rootdata import AffineType
    code, out = run_cli(["relations", "--family", "A", "--n", "2", "--r", "1",
                         "--height", "1", "--bound", "2,2", "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "defining-relation sweep on A2r1, height <= 1, box 2,2"
    mod = get_module(AffineType("A", 2, 1))
    both = len(mod.enumerate_data(height=1, box=(2, 2)))
    assert both < len(mod.enumerate_data(box=(2, 2)))
    # every check covers the capped data plus its 10 random ones
    assert all(l.endswith(f" PASS {both + 10} vectors") for l in lines[1:])
    code, out = run_cli(["relations", "--family", "A", "--n", "2", "--r", "1",
                         "--bound", "2,2", "--format", "text"])
    assert out.splitlines()[0] == "defining-relation sweep on A2r1, box 2,2"


# full --format text output of the l-weight and string-recurrence jobs at
# K = 4, captured byte for byte before the level engines were merged
GOLDEN_TEXT = {
    ("lweight", "pos", "A", 3, 2): (
        'Psi_1(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_2(z) coefficients: 1, -q^-5*a + q^-3*a, 0, 0, 0  [polynomial]\n'
        'Psi_3(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'c_r = q^-5 - q^-3\n'
        'CHECK lweight-pos-A3r2-K4 PASS node 2 polynomial, others trivial\n'),
    ("lweight", "neg", "A", 3, 2): (
        'Psi_1(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_2(z) coefficients: 1, -q^-5*a + q^-3*a, q^-10*a^2 - 2*q^-8*a^2 + q^-6*a^2, -q^-15*a^3 + 3*q^-13*a^3 - 3*q^-11*a^3 + q^-9*a^3, q^-20*a^4 - 4*q^-18*a^4 + 6*q^-16*a^4 - 4*q^-14*a^4 + q^-12*a^4  [geometric]\n'
        'Psi_3(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'c_r = q^-5 - q^-3\n'
        'CHECK lweight-neg-A3r2-K4 PASS node 2 geometric, others trivial\n'),
    ("recurrence", "pos", "A", 3, 2): (
        'gamma_1 = q^-2*a\n'
        'gamma_2 = 0\n'
        'gamma_3 = 0\n'
        'gamma_4 = 0\n'
        'CHECK recurrence-pos-A3r2-K4 PASS gamma_k = 0 for k >= 2\n'),
    ("recurrence", "neg", "A", 3, 2): (
        'gamma_1 = q^-2*a\n'
        'gamma_2 = q^-7*a^2 - q^-5*a^2\n'
        'gamma_3 = q^-12*a^3 - 2*q^-10*a^3 + q^-8*a^3\n'
        'gamma_4 = q^-17*a^4 - 3*q^-15*a^4 + 3*q^-13*a^4 - q^-11*a^4\n'
        'CHECK recurrence-neg-A3r2-K4 PASS closed-form residuals all 0\n'),
    ("lweight", "pos", "D", 4, 4): (
        'Psi_1(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_2(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_3(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_4(z) coefficients: 1, q^-7*a - q^-5*a, 0, 0, 0  [polynomial]\n'
        'c_r = -q^-7 + q^-5\n'
        'CHECK lweight-pos-D4r4-K4 PASS node 4 polynomial, others trivial\n'),
    ("lweight", "neg", "D", 4, 4): (
        'Psi_1(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_2(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_3(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_4(z) coefficients: 1, q^-7*a - q^-5*a, q^-14*a^2 - 2*q^-12*a^2 + q^-10*a^2, q^-21*a^3 - 3*q^-19*a^3 + 3*q^-17*a^3 - q^-15*a^3, q^-28*a^4 - 4*q^-26*a^4 + 6*q^-24*a^4 - 4*q^-22*a^4 + q^-20*a^4  [geometric]\n'
        'c_r = -q^-7 + q^-5\n'
        'CHECK lweight-neg-D4r4-K4 PASS node 4 geometric, others trivial\n'),
    ("recurrence", "pos", "D", 4, 4): (
        'gamma_1 = q^-4*a\n'
        'gamma_2 = 0\n'
        'gamma_3 = 0\n'
        'gamma_4 = 0\n'
        'CHECK recurrence-pos-D4r4-K4 PASS gamma_k = 0 for k >= 2\n'),
    ("recurrence", "neg", "D", 4, 4): (
        'gamma_1 = q^-4*a\n'
        'gamma_2 = q^-11*a^2 - q^-9*a^2\n'
        'gamma_3 = q^-18*a^3 - 2*q^-16*a^3 + q^-14*a^3\n'
        'gamma_4 = q^-25*a^4 - 3*q^-23*a^4 + 3*q^-21*a^4 - q^-19*a^4\n'
        'CHECK recurrence-neg-D4r4-K4 PASS closed-form residuals all 0\n'),
    ("lweight", "pos", "D", 5, 1): (
        'Psi_1(z) coefficients: 1, q^-9*a - q^-7*a, 0, 0, 0  [polynomial]\n'
        'Psi_2(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_3(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_4(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_5(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'c_r = -q^-9 + q^-7\n'
        'CHECK lweight-pos-D5r1-K4 PASS node 1 polynomial, others trivial\n'),
    ("lweight", "pos", "D", 6, 5): (
        'Psi_1(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_2(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_3(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_4(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'Psi_5(z) coefficients: 1, q^-11*a - q^-9*a, 0, 0, 0  [polynomial]\n'
        'Psi_6(z) coefficients: 1, 0, 0, 0, 0  [trivial]\n'
        'c_r = -q^-11 + q^-9\n'
        'CHECK lweight-pos-D6r5-K4 PASS node 5 polynomial, others trivial\n'),
}


@pytest.mark.parametrize("key", list(GOLDEN_TEXT),
                         ids=[f"{c}-{m}-{f}{n}r{r}" for c, m, f, n, r in GOLDEN_TEXT])
def test_lweight_and_recurrence_text_golden(key):
    command, model, family, n, r = key
    code, out = run_cli([command, "--family", family, "--n", str(n),
                         "--r", str(r), "--model", model, "--K", "4",
                         "--format", "text"])
    assert code == 0
    assert out == GOLDEN_TEXT[key]


def _rank1_golden(M):
    return (f"CHECK rank1-serre-pos PASS m <= {M}\n"
            f"CHECK rank1-serre-neg PASS m <= {M}\n"
            "CHECK rank1-expansions PASS both models, m <= 5\n"
            "CHECK rank1-k-conjugation PASS both models, m <= 5\n"
            "CHECK rank1-suite PASS\n")


@pytest.mark.parametrize("argv, M", [(["rank1"], 20),
                                     (["rank1", "--height", "0"], 0)],
                         ids=["default", "height0"])
def test_rank1_golden(argv, M):
    assert run_cli(argv) == (0, _rank1_golden(M))


def golden_coefficients():
    """Every coefficient printed in GOLDEN_TEXT: the Psi_i lists, c_r and
    every gamma_k."""
    for text in GOLDEN_TEXT.values():
        for line in text.splitlines():
            if line.startswith("Psi_"):
                yield from line.split(": ")[1].split("  [")[0].split(", ")
            elif line.startswith(("c_r = ", "gamma_")):
                yield line.split(" = ")[1]


def test_golden_coefficients_parse_back():
    printed = list(golden_coefficients())
    # (2 (3 + 4) + 5 + 6 nodes) * 5 values, 6 c_r and 4 * 4 gamma_k
    assert len(printed) == 125 + 6 + 16
    for text in printed:
        assert str(parse_coefficient(text)) == text


def test_character_with_height_and_bound_applies_both():
    # the box 5,5,5 alone covers 91 weights of A3r2; height <= 2 cuts it to 5
    args = ["character", "--family", "A", "--n", "3", "--r", "2",
            "--height", "2", "--bound", "5,5,5"]
    line = "CHECK character-A3r2-h2-b5,5,5 PASS 5 weights\n"
    code, out = run_cli(args)
    assert code == 0
    assert out == line
    code, out = run_cli(args + ["--format", "text"])
    assert out == "0,0,0;1\n0,1,0;1\n0,1,1;1\n0,2,0;1\n1,1,0;1\n" + line


def test_character_text_job_walks_the_data_once(monkeypatch):
    # the table comes from the check's own count
    from qborel.latticemod import LatticeModule
    walk, walks = LatticeModule.walk_data, []

    def counted(self, *args, **kwargs):
        walks.append(self.t)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(LatticeModule, "walk_data", counted)
    code, out = run_cli(["character", "--family", "A", "--n", "3", "--r", "2",
                         "--height", "2", "--format", "text"])
    assert code == 0 and out.endswith(" PASS 5 weights\n")
    assert len(walks) == 1


# full braid --format text output, captured byte for byte before the root
# data were derived from the Cartan matrix: the convex order line prints
# every root of the module in its epsilon form
BRAID_GOLDEN = {
    ('A', 1, 1): (
        'reduced word: (1,)\n'
        'convex order: e1-e2\n'
        'row reading: (1,)\n'
        'col reading: (1,)\n'
        'CHECK braid-A1r1-first-root PASS e1-e2\n'
        'CHECK braid-A1r1-last-root PASS e1-e2\n'
        'CHECK braid-A1r1-inversion-set PASS 1 roots\n'
        'CHECK braid-A1r1-readings-equivalent PASS\n'),
    ('A', 4, 2): (
        'reduced word: (2, 3, 4, 1, 2, 3)\n'
        'convex order: e2-e3, e2-e4, e2-e5, e1-e3, e1-e4, e1-e5\n'
        'row reading: (2, 3, 4, 1, 2, 3)\n'
        'col reading: (2, 1, 3, 2, 4, 3)\n'
        'CHECK braid-A4r2-first-root PASS e2-e3\n'
        'CHECK braid-A4r2-last-root PASS e1-e5\n'
        'CHECK braid-A4r2-inversion-set PASS 6 roots\n'
        'CHECK braid-A4r2-readings-equivalent PASS\n'),
    ('D', 5, 1): (
        'reduced word: (1, 2, 3, 4, 5, 3, 2, 1)\n'
        'convex order: e1-e2, e1-e3, e1-e4, e1-e5, e1+e5, e1+e4, e1+e3, e1+e2\n'
        'row reading: (1, 2, 3, 4, 5, 3, 2, 1)\n'
        'col reading: (1, 2, 3, 5, 4, 3, 2, 1)\n'
        'CHECK braid-D5r1-first-root PASS e1-e2\n'
        'CHECK braid-D5r1-last-root PASS e1+e2\n'
        'CHECK braid-D5r1-inversion-set PASS 8 roots\n'
        'CHECK braid-D5r1-readings-equivalent PASS\n'),
    ('D', 6, 5): (
        'reduced word: (5, 4, 3, 2, 1, 6, 4, 3, 2, 5, 4, 3, 6, 4, 5)\n'
        'convex order: e5-e6, e4-e6, e3-e6, e2-e6, e1-e6, e4+e5, e3+e5, e2+e5, e1+e5, e3+e4, e2+e4, e1+e4, e2+e3, e1+e3, e1+e2\n'
        'row reading: (5, 4, 3, 2, 1, 6, 4, 3, 2, 5, 4, 3, 6, 4, 5)\n'
        'col reading: (5, 4, 6, 3, 4, 5, 2, 3, 4, 6, 1, 2, 3, 4, 5)\n'
        'CHECK braid-D6r5-first-root PASS e5-e6\n'
        'CHECK braid-D6r5-last-root PASS e1+e2\n'
        'CHECK braid-D6r5-inversion-set PASS 15 roots\n'
        'CHECK braid-D6r5-readings-equivalent PASS\n'),
    ('D', 7, 7): (
        'reduced word: (7, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 7, 5, 4, 3, 6, 5, 4, 7, 5, 6)\n'
        'convex order: e6+e7, e5+e7, e4+e7, e3+e7, e2+e7, e1+e7, e5+e6, e4+e6, e3+e6, e2+e6, e1+e6, e4+e5, e3+e5, e2+e5, e1+e5, e3+e4, e2+e4, e1+e4, e2+e3, e1+e3, e1+e2\n'
        'row reading: (7, 5, 4, 3, 2, 1, 6, 5, 4, 3, 2, 7, 5, 4, 3, 6, 5, 4, 7, 5, 6)\n'
        'col reading: (7, 5, 6, 4, 5, 7, 3, 4, 5, 6, 2, 3, 4, 5, 7, 1, 2, 3, 4, 5, 6)\n'
        'CHECK braid-D7r7-first-root PASS e6+e7\n'
        'CHECK braid-D7r7-last-root PASS e1+e2\n'
        'CHECK braid-D7r7-inversion-set PASS 21 roots\n'
        'CHECK braid-D7r7-readings-equivalent PASS\n'),
}


@pytest.mark.parametrize("key", list(BRAID_GOLDEN),
                         ids=[f"{f}{n}r{r}" for f, n, r in BRAID_GOLDEN])
def test_braid_text_golden(key):
    family, n, r = key
    code, out = run_cli(["braid", "--family", family, "--n", str(n),
                         "--r", str(r), "--format", "text"])
    assert code == 0
    assert out == BRAID_GOLDEN[key]
