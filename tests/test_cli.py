import io
import os
import subprocess
import sys
import threading
from itertools import product
from pathlib import Path

import pytest

import lexsem
from lexsem import reduction
from lexsem.cli import FORMATS, CliConfig, main, parse_args, run

from conftest import FIXTURES, deep_shared_lexicon
from test_composition import (CAPTURE, FAN_OUT_TREES, Y_BINDER,
                              _fan_out_text)

MONTAGUE = str(FIXTURES / "montague.mgl")
LIVERPOOL = str(FIXTURES / "liverpool.mgl")
ASSINATURA = str(FIXTURES / "assinatura.mgl")


def config(lexicon, input_path=None, format="formula", all_readings=False,
           fuel=10000):
    return CliConfig(lexicon, input_path, format, all_readings, fuel)


def trees(tmp_path, text):
    p = tmp_path / "trees.txt"
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# argument parsing

def test_parse_args_defaults():
    cfg = parse_args(["--lexicon", "lex.mgl"])
    assert cfg == CliConfig("lex.mgl", None, "formula", False, 10000)


def test_parse_args_full():
    cfg = parse_args(["--lexicon", "l", "--input", "i", "--format", "trace",
                      "--all-readings", "--fuel", "7"])
    assert cfg == CliConfig("l", "i", "trace", True, 7)


@pytest.mark.parametrize("argv", [
    [],
    ["--lexicon", "l", "--format", "prose"],
    ["--lexicon", "l", "--fuel", "0"],
    ["--lexicon", "l", "--fuel", "many"],
    ["--lexicon", "l", "--frmat", "term"],
])
def test_parse_args_rejects(argv):
    with pytest.raises(SystemExit) as err:
        parse_args(argv)
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# exit codes

def test_exit_zero_when_felicitous(tmp_path, capsys):
    inp = trees(tmp_path, "((some club) (defeated Leeds))\n")
    assert run(config(MONTAGUE, inp)) == 0
    assert capsys.readouterr().out == \
        "exists x:e. club(x) & defeated(x, Leeds)\n"


def test_exit_one_when_infelicitous(tmp_path, capsys):
    inp = trees(tmp_path, "((AND voted won) Liverpool)\n")
    assert run(config(LIVERPOOL, inp)) == 1
    out = capsys.readouterr().out
    assert out.startswith("INFELICITOUS: rigid t1 excludes t2")


def test_exit_one_on_malformed_line(tmp_path, capsys):
    inp = trees(tmp_path, "(spread_out Liverpool\n")
    assert run(config(LIVERPOOL, inp)) == 1
    assert capsys.readouterr().out.startswith("ERROR: ")


def test_deep_trees_leave_the_batch_answered(tmp_path, capsys):
    wrapped = "(" * 3000 + "(spread_out Liverpool)" + ")" * 3000
    left_nested = ("(" * 3000 + "spread_out Liverpool"
                   + " Liverpool)" * 3000)
    inp = trees(tmp_path, "\n".join(["(spread_out Liverpool)", wrapped,
                                      left_nested,
                                      "((AND spread_out voted) Liverpool)"]))
    assert run(config(LIVERPOOL, inp)) == 1
    blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
    assert blocks[:2] == ["spread_out(t3(lpl))"] * 2
    assert blocks[2].startswith("ERROR: ")
    assert blocks[3] == "spread_out(t3(lpl)) & voted(t2(lpl))"


def test_exit_one_on_unknown_word(tmp_path, capsys):
    inp = trees(tmp_path, "(spread_out Everton)\n")
    assert run(config(LIVERPOOL, inp)) == 1
    out = capsys.readouterr().out
    assert out.startswith("TYPE-ERROR: ")
    assert "Everton" in out


def test_an_instance_unlike_the_argument_is_a_type_error(tmp_path, monkeypatch,
                                                         capsys):
    lex = tmp_path / "capture.mgl"
    lex.write_text(CAPTURE)
    monkeypatch.setattr("sys.stdin", io.StringIO("(f w)\n(g v)\n"))
    assert run(config(str(lex))) == 1
    assert capsys.readouterr().out == (
        "TYPE-ERROR: at ε: cannot apply Pi 'a. (Pi 'b. 'a -> 'a) -> t"
        " to Pi 'c. 'c -> 'c\n\n"
        "TYPE-ERROR: at ε: cannot apply Pi 'a. ('a -> Pi 'b. 'b -> 'a) -> t"
        " to 'z -> Pi 'c. 'c -> 'c\n")


def test_unknown_words_print_no_control_characters(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("\x00\n(voted \x1b[31mX)\n"))
    assert run(config(LIVERPOOL)) == 1
    assert capsys.readouterr().out == (
        "TYPE-ERROR: at ε: unknown word '\\x00'\n\n"
        "TYPE-ERROR: at 1: unknown word '\\x1b[31mX'\n")


def test_fuel_exhaustion_is_a_resource_limit(tmp_path, capsys):
    inp = trees(tmp_path, "((AND spread_out voted) Liverpool)\n"
                          "(spread_out voted)\n")
    assert run(config(LIVERPOOL, inp, fuel=1)) == 1
    blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
    assert blocks[0] == "RESOURCE-LIMIT: no normal form after 1 steps"
    assert blocks[1].startswith("TYPE-ERROR: ")


def test_trace_out_of_fuel_is_a_resource_limit(tmp_path, capsys):
    # the trace prints the derivation the reading was charged for, so it
    # runs out exactly where every other format does: below the charge, 19
    inp = trees(tmp_path,
                "((AND (AND furou ilegivel) atrasou) (THE assinatura))\n")
    for fmt in ("trace", "verdict", "formula", "term"):
        assert run(config(ASSINATURA, inp, format=fmt, fuel=18)) == 1
        assert capsys.readouterr().out == \
            "RESOURCE-LIMIT: no normal form after 18 steps\n"
    assert run(config(ASSINATURA, inp, format="term", fuel=19)) == 0
    term = capsys.readouterr().out.rstrip("\n")
    for fuel in (19, 20):
        assert run(config(ASSINATURA, inp, format="trace", fuel=fuel)) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"ε AND +11 steps (19 in all) ⇒ {term}"


def test_trace_does_not_type_check_the_source_again(tmp_path, capsys,
                                                    monkeypatch):
    # composition built the source from type-checked parts
    inp = trees(tmp_path,
                "((AND (AND furou ilegivel) atrasou) (THE assinatura))\n")
    assert run(config(ASSINATURA, inp, format="trace")) == 0
    want = capsys.readouterr().out
    checked = []
    monkeypatch.setattr(reduction, "type_of", checked.append)
    assert run(config(ASSINATURA, inp, format="trace")) == 0
    assert capsys.readouterr().out == want
    assert checked == []


def test_exit_two_on_missing_lexicon(tmp_path, capsys):
    inp = trees(tmp_path, "(a b)\n")
    assert run(config(str(tmp_path / "nope.mgl"), inp)) == 2
    assert "cannot read lexicon" in capsys.readouterr().err


def test_exit_two_on_broken_lexicon(tmp_path, capsys):
    bad = tmp_path / "bad.mgl"
    bad.write_text("sorts: e\nword w : q = #k\n")
    inp = trees(tmp_path, "(a b)\n")
    assert run(config(str(bad), inp)) == 2
    assert "bad lexicon" in capsys.readouterr().err


def test_exit_two_on_missing_input(tmp_path, capsys):
    assert run(config(MONTAGUE, str(tmp_path / "nope.txt"))) == 2
    assert "cannot read input" in capsys.readouterr().err


def test_exit_two_on_non_utf8_lexicon(tmp_path, capsys):
    bad = tmp_path / "latin1.mgl"
    bad.write_bytes(b"sorts: e\npred caf\xe9 : e\n")
    inp = trees(tmp_path, "(a b)\n")
    assert run(config(str(bad), inp)) == 2
    assert capsys.readouterr().err.startswith("cannot read lexicon: ")


def test_exit_two_on_non_utf8_input(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"(spread_out Liverpool)\n(caf\xe9 Liverpool)\n")
    assert run(config(LIVERPOOL, str(bad))) == 2
    assert capsys.readouterr().err.startswith("cannot read input: ")


@pytest.mark.parametrize("text", [
    "sorts: e\npred p : " + "(" * 3000 + "e" + ")" * 3000 + "\n",
    "sorts: e\npred k : e\nword w : e = " + "(" * 3000 + "#k" + ")" * 3000,
    "sorts: e\npred p : " + "e -> " * 3000 + "t\n",
], ids=["paren-type", "paren-term", "arrows"])
def test_exit_two_on_deeply_nested_lexicon(tmp_path, capsys, text):
    lex = tmp_path / "deep.mgl"
    lex.write_text(text)
    inp = trees(tmp_path, "(a b)\n")
    assert run(config(str(lex), inp)) == 2
    assert capsys.readouterr().err.startswith("bad lexicon: ")


def test_a_word_whose_declared_type_has_400_arrows_loads(tmp_path, capsys):
    # validating the word compares two 400-arrow types by their keys
    lex = tmp_path / "deep.mgl"
    lex.write_text("sorts: e\npred p : " + "e -> " * 400 + "t\nword w : "
                   + "e -> " * 400 + "t = #p\n")
    assert run(config(str(lex), trees(tmp_path, "w\n"))) == 0
    assert capsys.readouterr() == ("#p\n", "")


def test_a_shared_word_with_a_600_arrow_type_gets_its_block(tmp_path,
                                                            capsys):
    # the conjunction's plan is keyed by α-keys, not by hashing the types
    lex = tmp_path / "deep.mgl"
    lex.write_text(deep_shared_lexicon(600))
    inp = trees(tmp_path, "((AND p s) w)\n")
    assert run(config(str(lex), inp, format="verdict")) == 0
    assert capsys.readouterr() == (
        "FELICITOUS: 1 reading(s)\n  1. p(c) & s(c)\n     via id@w, id@w\n",
        "")


def test_reads_stdin_by_default(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("(spread_out Liverpool)\n"))
    assert run(config(LIVERPOOL)) == 0
    assert capsys.readouterr().out == "spread_out(t3(lpl))\n"


def test_lines_split_where_splitlines_splits(tmp_path, capsys):
    inp = trees(tmp_path, "(spread_out Liverpool)\x0b(voted Liverpool)"
                          "\u2028# a comment\u2028(spread_out Liverpool)\n")
    assert run(config(LIVERPOOL, inp)) == 0
    assert capsys.readouterr().out == \
        "spread_out(t3(lpl))\n\nvoted(t2(lpl))\n\nspread_out(t3(lpl))\n"


def test_each_block_is_printed_before_input_ends():
    env = dict(os.environ, PYTHONPATH=str(Path(lexsem.__file__).parents[1]))
    with subprocess.Popen(
            [sys.executable, "-m", "lexsem.cli", "--lexicon", LIVERPOOL],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env) as proc:
        try:
            proc.stdin.write("(spread_out Liverpool)\n")
            proc.stdin.flush()
            got = []
            reader = threading.Thread(
                target=lambda: got.append(proc.stdout.readline()),
                daemon=True)
            reader.start()
            reader.join(timeout=30)
            # stdin is still open: the block came from that line alone
            assert got == ["spread_out(t3(lpl))\n"]
            proc.stdin.close()
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()


def test_a_closed_stdout_ends_the_run_without_a_traceback(tmp_path):
    trees_text = "".join(line + "\n" for line in
                         (FIXTURES / "trees_montague.txt").read_text()
                         .splitlines() if line and not line.startswith("#"))
    # far more output than a pipe holds, so the command is still writing
    inp = trees(tmp_path, trees_text * (6000 // trees_text.count("\n")))
    env = dict(os.environ, PYTHONPATH=str(Path(lexsem.__file__).parents[1]))
    with subprocess.Popen(
            [sys.executable, "-m", "lexsem.cli", "--lexicon", MONTAGUE,
             "--input", inp, "--format", "verdict"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env) as proc:
        try:
            assert proc.stdout.readline().startswith("FELICITOUS")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 2
        finally:
            proc.kill()
    assert "Traceback" not in err
    assert err == ""


class _ClosedPipe:
    """A stdout whose reader is gone, over a file descriptor of its own."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


def test_a_closed_stdout_ends_the_run_in_process(tmp_path, monkeypatch):
    inp = trees(tmp_path, "(spread_out Liverpool)\n")
    with open(tmp_path / "stdout", "w") as out:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(out.fileno()))
        assert run(config(LIVERPOOL, inp)) == 2


def test_main_raises_system_exit(tmp_path, capsys):
    inp = trees(tmp_path, "(spread_out Liverpool)\n")
    with pytest.raises(SystemExit) as err:
        main(["--lexicon", LIVERPOOL, "--input", inp])
    assert err.value.code == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# formats

def test_comments_and_blanks_are_skipped(tmp_path, capsys):
    inp = trees(tmp_path, "# heading\n\n(spread_out Liverpool)\n\n"
                          "# more\n(voted Liverpool)\n")
    assert run(config(LIVERPOOL, inp)) == 0
    assert capsys.readouterr().out == \
        "spread_out(t3(lpl))\n\nvoted(t2(lpl))\n"


def test_term_format(tmp_path, capsys):
    inp = trees(tmp_path, "((some club) (defeated Leeds))\n")
    assert run(config(MONTAGUE, inp, format="term")) == 0
    assert capsys.readouterr().out == \
        "#exists{e} (lam x:e. #& (#club x) (#defeated x #Leeds))\n"


def test_verdict_format(tmp_path, capsys):
    inp = trees(tmp_path, "(spread_out Liverpool)\n"
                          "((AND spread_out voted) Liverpool)\n"
                          "((AND voted won) Liverpool)\n")
    assert run(config(LIVERPOOL, inp, format="verdict")) == 1
    assert capsys.readouterr().out == """\
FELICITOUS: 1 reading(s)
  1. spread_out(t3(lpl))
     via t3@Liverpool

FELICITOUS: 1 reading(s)
  1. spread_out(t3(lpl)) & voted(t2(lpl))
     via t3@Liverpool, t2@Liverpool

INFELICITOUS: rigid t1 excludes t2
  rejected: rigid t1 excludes t2
"""


def test_verdict_format_presupposition(tmp_path, capsys):
    inp = trees(tmp_path, "(atrasou (THE assinatura))\n")
    assert run(config(ASSINATURA, inp, format="verdict")) == 0
    assert capsys.readouterr().out == """\
FELICITOUS: 1 reading(s)
  1. atrasou(iota[v](assi))
     presupposes assi(iota[v](assi))
"""


def test_verdict_format_note(tmp_path, capsys):
    inp = trees(tmp_path,
                "((AND (AND furou ilegivel) atrasou) (THE assinatura))\n")
    assert run(config(ASSINATURA, inp, format="verdict")) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "FELICITOUS: 1 reading(s)"
    assert out.splitlines()[-1] == \
        "  note: rigidity applies within each conjunction node separately"


def test_trace_format(tmp_path, capsys):
    inp = trees(tmp_path, "((some club) (defeated Leeds))\n")
    assert run(config(MONTAGUE, inp, format="trace")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("(lam P:e -> t. lam Q:e -> t. #exists{e}"
                        " (lam x:e. #& (P x) (Q x))) (lam x:e. #club x)"
                        " ((lam y:e. lam x:e. #defeated x y) #Leeds)")
    # a line per node, bottom-up, with the steps contracted there
    assert lines[1:] == [
        "0.0 word +0 steps (0 in all) ⇒ lam P:e -> t. lam Q:e -> t."
        " #exists{e} (lam x:e. #& (P x) (Q x))",
        "0.1 word +0 steps (0 in all) ⇒ lam x:e. #club x",
        "0 apply +2 steps (2 in all) ⇒ lam Q:e -> t. #exists{e}"
        " (lam x:e. #& (#club x) (Q x))",
        "1.0 word +0 steps (2 in all) ⇒ lam y:e. lam x:e. #defeated x y",
        "1.1 word +0 steps (2 in all) ⇒ #Leeds",
        "1 apply +1 steps (3 in all) ⇒ lam x:e. #defeated x #Leeds",
        "ε apply +2 steps (5 in all) ⇒ #exists{e}"
        " (lam x:e. #& (#club x) (#defeated x #Leeds))"]


def test_trace_format_normal_source(tmp_path, capsys):
    # the built term is already normal: no node contracts anything
    inp = trees(tmp_path, "(spread_out Liverpool)\n")
    assert run(config(LIVERPOOL, inp, format="trace")) == 0
    assert capsys.readouterr().out == (
        "#spread_out (#t3 #lpl)\n"
        "0 word +0 steps (0 in all) ⇒ #spread_out\n"
        "1 word +0 steps (0 in all) ⇒ #lpl\n"
        "ε apply +0 steps (0 in all) ⇒ #spread_out (#t3 #lpl)\n")


def test_a_nested_conjunction_prints_its_trace_s_last_term(tmp_path, capsys):
    # --format term prints the reading; --format trace ends on it after
    # normal order, which leaves the morphism's binder `y` as it is
    lex = tmp_path / "y_binder.mgl"
    lex.write_text(Y_BINDER)
    inp = trees(tmp_path, "((AND (AND p q) p) w)\n")
    assert run(config(str(lex), inp, format="term")) == 0
    [term] = capsys.readouterr().out.splitlines()
    assert run(config(str(lex), inp, format="trace")) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.split(" ⇒ ")[1] == term
    assert "y1" not in term


FOUR_WAY = (
    "sorts: xi alpha\n"
    "pred k : xi\npred u : xi -> alpha\npred w : xi -> alpha\n"
    "pred pp : alpha -> t\npred qq : alpha -> t\n"
    "word N : xi = #k\n"
    "  morph u : xi -> alpha = #u [flexible]\n"
    "  morph w : xi -> alpha = #w [flexible]\n"
    "word pp : alpha -> t = #pp\n"
    "word qq : alpha -> t = #qq\n")


def test_all_readings_flag(tmp_path, capsys):
    lex = tmp_path / "four.mgl"
    lex.write_text(FOUR_WAY)
    inp = trees(tmp_path, "((AND pp qq) N)\n")

    assert run(config(str(lex), inp)) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1

    assert run(config(str(lex), inp, all_readings=True)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == ["pp(u(k)) & qq(u(k))", "pp(u(k)) & qq(w(k))",
                             "pp(w(k)) & qq(u(k))", "pp(w(k)) & qq(w(k))"]


def test_all_readings_trace_summarizes_rest(tmp_path, capsys):
    lex = tmp_path / "four.mgl"
    lex.write_text(FOUR_WAY)
    inp = trees(tmp_path, "((AND pp qq) N)\n")
    assert run(config(str(lex), inp, format="trace",
                      all_readings=True)) == 0
    lines = capsys.readouterr().out.splitlines()
    also = [l for l in lines if l.startswith("also: ")]
    assert len(also) == 3
    # the first reading got its derivation instead: the shared argument,
    # the two conjuncts, then their conjunction
    assert [l.split(" +")[0] for l in lines[1:-3]] == \
        ["1 word", "0.0.1 word", "0.1 word", "ε AND"]


DUP = ("sorts: e\npred c : e\npred pair : e -> e -> e\npred ok : e -> t\n"
       "word c : e = #c\nword ok : e -> t = #ok\n"
       "word dup : e -> e = lam x:e. (#pair x) x\n")
STATUSES = ("INFELICITOUS: ", "TYPE-ERROR: ", "RESOURCE-LIMIT: ", "ERROR: ")


def _status_cases(tmp_path):
    for name in ("montague", "liverpool", "assinatura", "fanout"):
        yield (str(FIXTURES / f"{name}.mgl"),
               str(FIXTURES / f"trees_{name}.txt"))
    lexica = [(f"fanout_{kind}_{m}", _fan_out_text(m, kind), FAN_OUT_TREES)
              for kind in ("normal", "non-normal", "odd") for m in (1, 2, 3)]
    lexica.append(("dup", DUP, ["(ok " + "(dup " * n + "c" + ")" * (n + 1)
                                for n in range(1, 13)]))
    for name, text, lines in lexica:
        lex = tmp_path / f"{name}.mgl"
        lex.write_text(text)
        yield str(lex), trees(tmp_path, "\n".join(lines) + "\n")


def _statuses(out):
    return tuple(next((s for s in STATUSES if block.startswith(s)), "")
                 for block in out.split("\n\n"))


def test_a_tree_has_one_status_in_every_format(tmp_path, capsys):
    # the trace prints the derivation the verdict was reached by, so no
    # format can run out of fuel, or fail, where another does not
    for lex, inp in _status_cases(tmp_path):
        for fuel in (8, 19, 10000):
            seen, outs = set(), {}
            for fmt, every in product(FORMATS, (False, True)):
                code = run(config(lex, inp, fmt, every, fuel))
                outs[fmt, every] = capsys.readouterr().out
                seen.add((code, _statuses(outs[fmt, every])))
            assert len(seen) == 1, (lex, fuel, seen)
            terms = outs["term", False].split("\n\n")
            for term, trace in zip(terms, outs["trace", False].split("\n\n")):
                if not term.startswith(STATUSES):
                    last = trace.rstrip("\n").splitlines()[-1]
                    assert last.split(" ⇒ ", 1)[1] == term.rstrip("\n")


def test_output_is_deterministic(tmp_path, capsys):
    inp = trees(tmp_path, "(furou (THE assinatura))\n"
                          "((AND furou ilegivel) (THE assinatura))\n")
    run(config(ASSINATURA, inp, format="verdict"))
    first = capsys.readouterr().out
    run(config(ASSINATURA, inp, format="verdict"))
    assert capsys.readouterr().out == first
