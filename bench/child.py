"""Fresh-process helpers for the benchmark.

    python3 bench/child.py probe INPUT_FILE
        Reads the lexica and the tree that the benchmark wrote to
        INPUT_FILE, then times `import lexsem` plus loading the lexica,
        then judges and renders the tree.  Prints one JSON object: the
        set-up seconds, and the perf_counter reading when the tree's
        answer was ready (the clock is shared with the parent process).

    python3 bench/child.py cli-traced STATS_FILE CLI_ARGS...
        Runs the lexsem command with the tracing wrappers installed and
        writes the span sums and spans to STATS_FILE when it ends, however
        it ends.  The exit status is the command's own.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))


def judge(parse_tree, felicity, render_formula, render_term, text, lex):
    """One operation: a tree through the public API to rendered output."""
    v = felicity(parse_tree(text), lex)
    out = [v.status]
    for r in v.readings:
        out.append(render_formula(r.formula) if r.formula is not None
                   else render_term(r.term))
        out.extend(render_formula(p) for p in r.presuppositions)
    out.extend(str(x) for x in v.rejection_log)
    return v, tuple(out)


def probe(input_file: str):
    given = json.loads(Path(input_file).read_text())
    t0 = time.perf_counter()
    import lexsem
    lexica = {k: lexsem.load_lexicon(text)
              for k, text in given["lexica"].items()}
    t1 = time.perf_counter()
    judge(lexsem.parse_tree, lexsem.felicity, lexsem.render_formula,
          lexsem.render_term, given["tree"], lexica[given["lexicon"]])
    t2 = time.perf_counter()
    print(json.dumps({"setup_s": t1 - t0, "first_at": t2}))


def cli_traced(stats_path: str, argv: list):
    import lexsem.cli
    from tracing import Tracer, lexsem_modules
    tracer = Tracer(span_cap=5_000)
    tracer.install(lexsem_modules())
    try:
        tracer.entry(lexsem.cli.main)(argv)
    finally:
        Path(stats_path).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        probe(sys.argv[2])
    elif sys.argv[1] == "cli-traced":
        cli_traced(sys.argv[2], sys.argv[3:])
    else:
        raise SystemExit(f"unknown mode {sys.argv[1]!r}")
