"""Command line front end.

Reads one parse tree per line, judges each against a lexicon, and
prints one block per tree.  Exit status: 0 when every tree is
felicitous, 1 when any tree is infelicitous, fails to type, runs out of
fuel, or fails to parse, 2 for unusable invocations (bad flags,
unreadable files, a broken lexicon).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .composition import (FELICITOUS, INFELICITOUS, RESOURCE_LIMIT, Reading,
                          Verdict, felicity, parse_tree)
from .kernel import KernelError, render_term
from .lexicon import load_lexicon
from .logic import render_formula
from .reduction import normalize, render_trace

FORMATS = ("formula", "term", "verdict", "trace")


@dataclass
class CliConfig:
    lexicon_path: str
    input_path: Optional[str]
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
                                          " normalization (default: 10000)")
    ns = parser.parse_args(argv)
    return CliConfig(ns.lexicon, ns.input, ns.format,
                     ns.all_readings, ns.fuel)


def _summary(r: Reading) -> str:
    if r.formula is not None:
        return render_formula(r.formula)
    return render_term(r.term)


def _reading_lines(r: Reading, format: str, fuel: int) -> list:
    if format == "term":
        return [render_term(r.term)]
    if format == "trace":
        _, trace = normalize(r.source, fuel=fuel)
        return [render_term(r.source)] + render_trace(trace).splitlines()
    return [_summary(r)]


def _morph_text(records) -> str:
    return ", ".join(f"{name}@{word}" for word, _, name in records)


def _verdict_block(v: Verdict) -> list:
    if v.status == FELICITOUS:
        n = len(v.readings)
        lines = [f"FELICITOUS: {n} reading(s)"]
        for i, r in enumerate(v.readings, 1):
            lines.append(f"  {i}. {_summary(r)}")
            if r.used_morphisms:
                lines.append(f"     via {_morph_text(r.used_morphisms)}")
            for p in r.presuppositions:
                lines.append(f"     presupposes {render_formula(p)}")
        for reason in v.rejection_log:
            lines.append(f"  rejected: {reason}")
    elif v.status == INFELICITOUS:
        first = v.rejection_log[0] if v.rejection_log else "no readings"
        lines = [f"INFELICITOUS: {first}"]
        for reason in v.rejection_log:
            lines.append(f"  rejected: {reason}")
    elif v.status == RESOURCE_LIMIT:
        lines = [f"RESOURCE-LIMIT: {v.error}"]
    else:
        lines = [f"TYPE-ERROR: {v.error}"]
    for note in v.notes:
        lines.append(f"  note: {note}")
    return lines


def _tree_block(line: str, lex, config: CliConfig):
    """Returns (lines, ok) for one input tree."""
    try:
        return _verdict_lines(felicity(parse_tree(line), lex,
                                       fuel=config.fuel), config)
    except KernelError as err:
        return [f"ERROR: {err}"], False
    except RecursionError:
        # raised for this tree alone; the rest of the batch is still judged
        return ["ERROR: tree nested too deeply"], False


def _verdict_lines(verdict: Verdict, config: CliConfig):
    if config.format == "verdict":
        return _verdict_block(verdict), verdict.status == FELICITOUS
    if verdict.status != FELICITOUS:
        return _verdict_block(verdict), False
    if config.format == "trace":
        # the first reading gets the full derivation; the rest one line each
        lines = _reading_lines(verdict.readings[0], "trace", config.fuel)
        if config.all_readings:
            for r in verdict.readings[1:]:
                lines.append(f"also: {_summary(r)}")
        return lines, True
    readings = verdict.readings if config.all_readings else verdict.readings[:1]
    lines = []
    for r in readings:
        lines.extend(_reading_lines(r, config.format, config.fuel))
    return lines, True


def run(config: CliConfig) -> int:
    try:
        lex = load_lexicon(Path(config.lexicon_path).read_text())
    except OSError as err:
        print(f"cannot read lexicon: {err}", file=sys.stderr)
        return 2
    except KernelError as err:
        print(f"bad lexicon: {err}", file=sys.stderr)
        return 2
    if config.input_path is None:
        text = sys.stdin.read()
    else:
        try:
            text = Path(config.input_path).read_text()
        except OSError as err:
            print(f"cannot read input: {err}", file=sys.stderr)
            return 2
    blocks = []
    all_ok = True
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lines, ok = _tree_block(line, lex, config)
        blocks.append("\n".join(lines))
        all_ok = all_ok and ok
    if blocks:
        print("\n\n".join(blocks))
    return 0 if all_ok else 1


def main(argv=None):
    raise SystemExit(run(parse_args(argv)))


if __name__ == "__main__":
    main()
