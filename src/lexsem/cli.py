"""Command line front end.

Reads one parse tree per line, judges each against a lexicon, and
prints one block per tree as soon as the tree is judged.  Exit status:
0 when every tree is felicitous, 1 when any tree is infelicitous, fails
to type, runs out of fuel, or fails to parse, 2 for unusable
invocations (bad flags, unreadable files, a broken lexicon) and,
silently, for a standard output that closes before every block is out.
"""

from __future__ import annotations

import argparse
import os
import sys

from .composition import (FELICITOUS, INFELICITOUS, RESOURCE_LIMIT, Reading,
                          Verdict, _derivation, felicity, parse_tree)
from .kernel import KernelError, record, render_term
from .lexicon import load_lexicon
from .logic import render_formula

FORMATS = ("formula", "term", "verdict", "trace")


class CliConfig(metaclass=record):
    lexicon_path: str
    input_path: str | None
    format: str
    all_readings: bool
    fuel: int


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("fuel must be at least 1")
    return value


def parse_args(argv=None) -> CliConfig:
    parser = argparse.ArgumentParser(
        prog="lexsem",
        description="Judge parse trees against a lexicon and print"
                    " their logical readings.")
    parser.add_argument("--lexicon", required=True, metavar="FILE",
                        help="lexicon file to load")
    parser.add_argument("--input", metavar="FILE",
                        help="file of parse trees, one per line"
                             " (default: stdin)")
    parser.add_argument("--format", choices=FORMATS, default="formula",
                        help="what to print per tree (default: formula)")
    parser.add_argument("--all-readings", action="store_true",
                        help="print every reading, not just the first")
    parser.add_argument("--fuel", type=_positive_int, default=10000,
                        metavar="N", help="reduction step budget per"
                                          " reading (default: 10000)")
    ns = parser.parse_args(argv)
    return CliConfig(ns.lexicon, ns.input, ns.format,
                     ns.all_readings, ns.fuel)


def _summary(r: Reading) -> str:
    if r.formula is not None:
        return render_formula(r.formula)
    return render_term(r.term)


def _morph_text(records) -> str:
    return ", ".join(f"{name}@{word}" for word, _, name in records)


def _verdict_block(v: Verdict) -> list:
    if v.status == FELICITOUS:
        lines = [f"FELICITOUS: {len(v.readings)} reading(s)"]
        for i, r in enumerate(v.readings, 1):
            lines.append(f"  {i}. {_summary(r)}")
            if r.used_morphisms:
                lines.append(f"     via {_morph_text(r.used_morphisms)}")
            for p in r.presuppositions:
                lines.append(f"     presupposes {render_formula(p)}")
    elif v.status == INFELICITOUS:
        first = v.rejection_log[0] if v.rejection_log else "no readings"
        lines = [f"INFELICITOUS: {first}"]
    elif v.status == RESOURCE_LIMIT:
        lines = [f"RESOURCE-LIMIT: {v.error}"]
    else:
        lines = [f"TYPE-ERROR: {v.error}"]
    # a type error or a resource limit logs no rejection
    for reason in v.rejection_log:
        lines.append(f"  rejected: {reason}")
    for note in v.notes:
        lines.append(f"  note: {note}")
    return lines


def _tree_block(line: str, lex, config: CliConfig):
    """Judges one input tree; returns (lines to print, felicitous?)."""
    try:
        alts = []
        v = felicity(parse_tree(line), lex, fuel=config.fuel, _alts=alts)
        ok = v.status == FELICITOUS
        if config.format == "verdict" or not ok:
            return _verdict_block(v), ok
        readings = v.readings if config.all_readings else v.readings[:1]
        if config.format == "term":
            return [render_term(r.term) for r in readings], True
        if config.format == "formula":
            return [_summary(r) for r in readings], True
        # trace: the first reading's source, a line per node of its
        # derivation, the last its normal form, then a line per other one
        lines, total = [render_term(readings[0].source)], 0
        for path, kind, steps, nf in _derivation(alts[0]):
            total += steps
            at = ".".join(map(str, path)) or "ε"
            lines.append(f"{at} {kind} +{steps} steps ({total} in all)"
                         f" ⇒ {render_term(nf)}")
        return lines + [f"also: {_summary(r)}" for r in readings[1:]], True
    except KernelError as err:
        return [f"ERROR: {err}"], False
    except RecursionError:
        # raised for this tree alone; the rest of the batch is still judged
        return ["ERROR: tree nested too deeply"], False  # untraced: RecursionError ends tracing


def _tree_lines(stream):
    """The tree lines of `stream`, split where `str.splitlines` splits."""
    for chunk in stream:
        for line in chunk.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                yield line


def run(config: CliConfig) -> int:
    try:
        with open(config.lexicon_path, encoding="utf-8") as f:
            lex = load_lexicon(f.read())
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read lexicon: {err}", file=sys.stderr)
        return 2
    except KernelError as err:
        print(f"bad lexicon: {err}", file=sys.stderr)
        return 2
    try:
        stream = (sys.stdin if config.input_path is None
                  else open(config.input_path, encoding="utf-8"))
    except OSError as err:
        print(f"cannot read input: {err}", file=sys.stderr)
        return 2
    all_ok, separator = True, ""
    try:
        for line in _tree_lines(stream):
            lines, ok = _tree_block(line, lex, config)
            print(separator + "\n".join(lines), flush=True)
            separator = "\n"
            all_ok = all_ok and ok
    except UnicodeDecodeError as err:
        print(f"cannot read input: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: stdout's buffer is flushed at exit, to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    finally:
        if stream is not sys.stdin:
            stream.close()
    return 0 if all_ok else 1


def main(argv=None):
    raise SystemExit(run(parse_args(argv)))


if __name__ == "__main__":
    main()
