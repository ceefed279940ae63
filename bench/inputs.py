"""Seeded inputs for the three workloads.

Nothing here imports lexsem: the set-up probe builds its inputs first and
only then times the import.  The copredication lexica and trees come from
this module's own generator, not from the test helpers, so that an edit to
a test cannot silently change a workload.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
FIXTURE_LEXICA = ("assinatura", "liverpool", "montague")
FORMATS = ("formula", "term", "verdict", "trace")

AND_DEPTHS = tuple(range(2, 13))
FANOUT_MS = (2, 4, 6, 8)
FANOUT_DEPTHS = (1, 2)
# Depth 2 stops at m = 6 (216 readings, about 1.5 s).  At m = 8 it gives 512
# readings in about 6.5 s, too few samples per run to be steady on a host
# whose speed alternates by 1.4x every second or two.
FANOUT_MAX_M_AT_DEPTH2 = 6
CLI_LINES = 240          # tree lines per CLI batch
CLI_ERRORS = 12          # of each error kind, per batch that carries errors
DEEP_NESTING = 3000


def fixture_text(name: str) -> str:
    return (FIXTURES / f"{name}.mgl").read_text()


def fixture_trees(name: str) -> list:
    lines = (FIXTURES / f"trees_{name}.txt").read_text().splitlines()
    return [ln.strip() for ln in lines
            if ln.strip() and not ln.strip().startswith("#")]


def corpus_cases() -> list:
    """The fixture corpus as (lexicon name, tree text) pairs."""
    return [(lex, tree) for lex in FIXTURE_LEXICA
            for tree in fixture_trees(lex)]


# ---------------------------------------------------------------------------
# copredication: lexica described by the generator, so that the checks can
# derive the expected readings without asking the engine


@dataclass(frozen=True)
class Morph:
    name: str
    target: str
    rigid: bool

    def is_identity(self, source: str) -> bool:
        return self.target == source


@dataclass(frozen=True)
class LexSpec:
    """What the checks need to know about one copredication lexicon."""

    key: str
    text: str
    word: str          # the shared argument
    const: str         # its principal constant
    source: str        # its sort
    morphs: tuple      # declared Morph values, in declaration order
    preds: tuple       # (word, sort) per one-place predicate word


@dataclass(frozen=True)
class Conj:
    left: object       # predicate word (str) or Conj
    right: object

    def text(self) -> str:
        def side(s):
            return s if isinstance(s, str) else s.text()
        return f"(AND {side(self.left)} {side(self.right)})"


@dataclass(frozen=True)
class CopredCase:
    name: str
    lexicon: str       # LexSpec.key
    shape: Conj

    def tree(self, word: str) -> str:
        return f"({self.shape.text()} {word})"


LIVERPOOL = LexSpec(
    key="liverpool", text="", word="Liverpool", const="lpl", source="T",
    morphs=(Morph("Id", "T", False), Morph("t1", "F", True),
            Morph("t2", "P", False), Morph("t3", "Pl", False)),
    preds=(("spread_out", "Pl"), ("voted", "P"), ("won", "F")))


def _names(rng, prefix, alphabet, n, taken):
    out = []
    while len(out) < n:
        name = prefix + "".join(rng.choice(alphabet) for _ in range(3))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def fanout_lexicon(rng: random.Random, m: int, rigid: bool) -> LexSpec:
    """One word of sort S with m morphisms S -> A, three predicates over A.

    With `rigid`, one morphism drawn by the seed is rigid.
    """
    taken: set = set()
    src, tgt = _names(rng, "S", string.ascii_uppercase, 2, taken)
    [word] = _names(rng, "W", string.ascii_lowercase, 1, taken)
    [const] = _names(rng, "c", string.ascii_lowercase, 1, taken)
    preds = _names(rng, "p", string.ascii_lowercase, 3, taken)
    mnames = _names(rng, "f", string.ascii_lowercase, m, taken)
    rigid_at = rng.randrange(m) if rigid else -1
    morphs = tuple(Morph(n, tgt, i == rigid_at) for i, n in enumerate(mnames))
    lines = [f"sorts: {src} {tgt}", f"pred {const} : {src}"]
    lines += [f"pred {f.name} : {src} -> {tgt}" for f in morphs]
    lines += [f"pred {p} : {tgt} -> t" for p in preds]
    lines.append(f"word {word} : {src} = #{const}")
    for f in morphs:
        kind = "rigid" if f.rigid else "flexible"
        lines.append(f"  morph {f.name} : {src} -> {tgt} = #{f.name} [{kind}]")
    lines += [f"word {p} : {tgt} -> t = #{p}" for p in preds]
    key = f"m{m}-{'rigid' if rigid else 'flexible'}"
    return LexSpec(key, "\n".join(lines) + "\n", word, const, src, morphs,
                   tuple((p, tgt) for p in preds))


@dataclass(frozen=True)
class CopredInputs:
    lexica: dict       # key -> LexSpec
    cases: tuple       # CopredCase values; the first is the probe's tree


def copred_inputs(seed: int, tiny: bool = False) -> CopredInputs:
    """Nested AND over Liverpool at depth 2-12 (one reading each), and
    morphism fan-out at m in {2, 4, 6, 8}, conjunction depth 1 (and depth 2
    up to m = 6), all-flexible and one-rigid.  The seed draws the names,
    the predicates at each leaf and which morphism is rigid; the shapes are
    fixed so that the work per round does not depend on the seed."""
    rng = random.Random(f"copred-{seed}")
    lexica = {"liverpool": replace(LIVERPOOL, text=fixture_text("liverpool"))}
    cases = []
    for depth in AND_DEPTHS[:3] if tiny else AND_DEPTHS:
        leaves = [rng.choice(("spread_out", "voted")) for _ in range(depth + 1)]
        shape = Conj(leaves[-2], leaves[-1])
        for leaf in reversed(leaves[:-2]):
            shape = Conj(leaf, shape)
        cases.append(CopredCase(f"and-d{depth}", "liverpool", shape))
    for m in FANOUT_MS[:2] if tiny else FANOUT_MS:
        for rigid in (False, True):
            spec = fanout_lexicon(rng, m, rigid)
            lexica[spec.key] = spec
            p, q, r = (name for name, _ in spec.preds)
            for depth in FANOUT_DEPTHS:
                if depth == 2 and m > FANOUT_MAX_M_AT_DEPTH2:
                    continue
                shape = Conj(p, q) if depth == 1 else Conj(Conj(p, q), r)
                cases.append(CopredCase(f"fanout-{spec.key}-d{depth}",
                                        spec.key, shape))
    return CopredInputs(lexica, tuple(cases))


# ---------------------------------------------------------------------------
# command line batches


@dataclass(frozen=True)
class Line:
    """One input line and what it is: a fixture tree, an unknown word, an
    unbalanced tree, or the deep tree."""

    text: str
    kind: str          # "tree" | "unknown" | "unbalanced" | "deep"
    tree: str = ""     # the fixture tree behind it
    word: str = ""     # the unknown word


@dataclass(frozen=True)
class Batch:
    name: str
    lexicon: str
    format: str
    all_readings: bool
    lines: tuple

    def input_text(self) -> str:
        return "".join(line.text + "\n" for line in self.lines)


def _error_lines(rng, trees) -> list:
    out = []
    for _ in range(CLI_ERRORS):
        tree = rng.choice(trees)
        parts = re.split(r"(\s+|[()])", tree)
        words = [i for i, p in enumerate(parts)
                 if p.strip() and p not in ("(", ")", "AND", "THE")]
        unknown = "Z" + "".join(rng.choice(string.ascii_lowercase)
                                for _ in range(5))
        parts[rng.choice(words)] = unknown
        out.append(Line("".join(parts), "unknown", tree, unknown))
    for _ in range(CLI_ERRORS):
        tree = rng.choice(trees)
        if rng.random() < 0.5:
            cut = tree.rindex(")")
            text = tree[:cut] + tree[cut + 1:]
        else:
            text = tree + ")"
        out.append(Line(text, "unbalanced", tree))
    return out


def deep_batch() -> Batch:
    """A fixed batch with one tree nested DEEP_NESTING levels among valid
    trees.  It does not depend on the seed."""
    trees = fixture_trees("liverpool") * 4
    inner = "spread_out Liverpool"
    deep = Line("(" * DEEP_NESTING + inner + ")" * DEEP_NESTING, "deep",
                f"({inner})")
    lines = [Line(t, "tree", t) for t in trees]
    lines.insert(len(lines) // 2, deep)
    return Batch("deep-liverpool-formula", "liverpool", "formula", False,
                 tuple(lines))


def cli_batches(seed: int, tiny: bool = False) -> list:
    """One batch per fixture lexicon, format and --all-readings, plus the
    deep-tree batch.  Batches over the lexica with infelicitous trees carry
    error lines; the montague batches hold only felicitous trees, so that
    exit status 0 is exercised too."""
    rng = random.Random(f"cli-{seed}")
    n = 12 if tiny else CLI_LINES
    batches = []
    for lex in FIXTURE_LEXICA:
        trees = fixture_trees(lex)
        for fmt in FORMATS:
            for all_readings in (False, True):
                errors = _error_lines(rng, trees) if lex != "montague" else []
                if tiny:
                    errors = errors[:1] + errors[-1:]
                body = [Line(t, "tree", t)
                        for t in (trees * n)[:n - len(errors)]]
                lines = body + errors
                rng.shuffle(lines)
                name = f"{lex}-{fmt}{'-all' if all_readings else ''}"
                batches.append(Batch(name, lex, fmt, all_readings,
                                     tuple(lines)))
    batches.append(deep_batch())
    return batches
