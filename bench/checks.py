"""Correctness checks, run outside the timed region.

The expectations for the fixture corpus are written by hand from the
judgments that README.md states; they are not a copy of the program's
output.  The copredication checks derive their expectations from the
generator's description of each lexicon: a brute-force enumeration of
morphism assignments, and normal forms built directly with kernel
constructors.  Every check returns a list of problems; empty means correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from lexsem.kernel import (Abs, App, Arrow, Const, Forall, PROP, SortRef,
                           TyAbs, TyApp, TypeVar, Var, alpha_equiv, type_of)
from lexsem.logic import connective_type, formula_to_term, render_formula

from inputs import Conj, LexSpec, Morph

FELICITOUS = "felicitous"
INFELICITOUS = "infelicitous"
PRESUP = "assi(iota[v](assi))"


@dataclass(frozen=True)
class Expect:
    status: str
    formulas: tuple = ()      # one rendered formula per reading
    morphs: tuple = ()        # morphism names per reading
    presups: tuple = ()       # rendered presuppositions, same for every reading
    rejection: str = ""       # first rejection of an infelicitous tree
    conj: bool = False        # the tree has one conjunction node

    @property
    def readings(self) -> int:
        return len(self.formulas)


# README.md ("Command line", "Parse trees") and the paper's judgments.
CORPUS = {
    "(atrasou (THE assinatura))":
        Expect(FELICITOUS, ("atrasou(iota[v](assi))",), ((),), (PRESUP,)),
    "(ilegivel (THE assinatura))":
        Expect(FELICITOUS, ("ilegivel(f_phi(iota[v](assi)))",),
               (("f_phi",),), (PRESUP,)),
    "(furou (THE assinatura))":
        Expect(FELICITOUS, ("furou(f_vphi(iota[v](assi)))",),
               (("f_vphi",),), (PRESUP,)),
    "((AND atrasou ilegivel) (THE assinatura))":
        Expect(INFELICITOUS, rejection="rigid Id_v excludes f_phi", conj=True),
    "((AND furou ilegivel) (THE assinatura))":
        Expect(FELICITOUS, ("furou(f_vphi(iota[v](assi)))"
                            " & ilegivel(f_phi(iota[v](assi)))",),
               (("f_vphi", "f_phi"),), (PRESUP,), conj=True),
    "(spread_out Liverpool)":
        Expect(FELICITOUS, ("spread_out(t3(lpl))",), (("t3",),)),
    "((AND spread_out voted) Liverpool)":
        Expect(FELICITOUS, ("spread_out(t3(lpl)) & voted(t2(lpl))",),
               (("t3", "t2"),), conj=True),
    "((AND voted won) Liverpool)":
        Expect(INFELICITOUS, rejection="rigid t1 excludes t2", conj=True),
    "((some club) (defeated Leeds))":
        Expect(FELICITOUS, ("exists x:e. club(x) & defeated(x, Leeds)",),
               ((),)),
}

# Rigidity of every morphism the fixture lexica declare; `id` is the
# implicit flexible identity.
FIXTURE_RIGID = {"Id_v": True, "f_vphi": False, "f_phi": False,
                 "Id": False, "t1": True, "t2": False, "t3": False,
                 "id": False}


# ---------------------------------------------------------------------------
# a canonical form of our own: de Bruijn indices for bound term and type
# variables, so that equal strings mean alpha-equivalent terms


def canon_type(ty, tenv=()) -> str:
    if isinstance(ty, SortRef):
        return ty.name
    if isinstance(ty, TypeVar):
        return f"'{tenv.index(ty.name)}" if ty.name in tenv else f"'{ty.name}"
    if isinstance(ty, Arrow):
        return f"({canon_type(ty.domain, tenv)}->{canon_type(ty.codomain, tenv)})"
    if isinstance(ty, Forall):
        return f"(Pi.{canon_type(ty.body, (ty.var,) + tenv)})"
    raise TypeError(f"not a type: {ty!r}")


def canon(t, env=(), tenv=()) -> str:
    if isinstance(t, Var):
        at = f"{env.index(t.name)}" if t.name in env else f"?{t.name}"
        return f"{at}:{canon_type(t.type, tenv)}"
    if isinstance(t, Const):
        return f"#{t.name}:{canon_type(t.type, tenv)}"
    if isinstance(t, App):
        return f"({canon(t.fun, env, tenv)} {canon(t.arg, env, tenv)})"
    if isinstance(t, Abs):
        return (f"(lam {canon_type(t.var_type, tenv)}."
                f" {canon(t.body, (t.var,) + env, tenv)})")
    if isinstance(t, TyApp):
        return f"({canon(t.fun, env, tenv)}{{{canon_type(t.arg_type, tenv)}}})"
    if isinstance(t, TyAbs):
        return f"(Lam. {canon(t.body, env, (t.var,) + tenv)})"
    raise TypeError(f"not a term: {t!r}")


def has_redex(t) -> bool:
    if isinstance(t, App):
        return (isinstance(t.fun, Abs) or has_redex(t.fun)
                or has_redex(t.arg))
    if isinstance(t, TyApp):
        return isinstance(t.fun, TyAbs) or has_redex(t.fun)
    if isinstance(t, (Abs, TyAbs)):
        return has_redex(t.body)
    return False


# ---------------------------------------------------------------------------
# properties every reading must have


def conj_pairs(shape, records):
    """The morphism pairs of each conjunction node, in postorder.

    Composition records a node's pair after the records of its conjuncts,
    so a postorder walk consumes them in order.
    """
    names = [name for _, _, name in records]
    out = []

    def walk(node):
        if isinstance(node, Conj):
            walk(node.left)
            walk(node.right)
            out.append(tuple(names[len(out) * 2:len(out) * 2 + 2]))
    walk(shape)
    return out


def reading_problems(r, ctx, rigid: dict, pairs) -> list:
    """No redex left, type t, the formula embeds back to the term, and the
    morphism pair at each conjunction node obeys rigidity."""
    bad = []
    if has_redex(r.term):
        bad.append("a redex is left in the normal form")
    if type_of(r.term, ctx) != PROP:
        bad.append("the reading is not of type t")
    if r.formula is None:
        bad.append("the reading has no formula")
    elif canon(formula_to_term(r.formula, ctx)) != canon(r.term):
        bad.append("formula_to_term of the formula differs from the term")
    for pair in pairs:
        if len(pair) != 2 or any(n not in rigid for n in pair):
            bad.append(f"unexpected morphism pair {pair}")
        elif pair[0] != pair[1] and (rigid[pair[0]] or rigid[pair[1]]):
            bad.append(f"pair {pair} breaks rigidity")
    return bad


def corpus_problems(tree: str, verdict, lex) -> list:
    e = CORPUS.get(tree)
    if e is None:
        return [f"no hand-written expectation for {tree}"]
    bad = []
    if verdict.status != e.status:
        bad.append(f"status {verdict.status}, expected {e.status}")
    if len(verdict.readings) != e.readings:
        bad.append(f"{len(verdict.readings)} readings, expected {e.readings}")
    for r, formula, morphs in zip(verdict.readings, e.formulas, e.morphs):
        got = render_formula(r.formula) if r.formula is not None else None
        if got != formula:
            bad.append(f"formula {got!r}, expected {formula!r}")
        if tuple(n for _, _, n in r.used_morphisms) != morphs:
            bad.append(f"morphisms {r.used_morphisms}, expected {morphs}")
        presups = tuple(render_formula(p) for p in r.presuppositions)
        if presups != e.presups:
            bad.append(f"presuppositions {presups}, expected {e.presups}")
        shape = Conj("", "") if e.conj else None
        bad += reading_problems(r, lex.context, FIXTURE_RIGID,
                                conj_pairs(shape, r.used_morphisms))
    if e.rejection and (not verdict.rejection_log
                        or str(verdict.rejection_log[0]) != e.rejection):
        bad.append(f"first rejection {verdict.rejection_log[:1]},"
                   f" expected {e.rejection!r}")
    return [f"{tree}: {b}" for b in bad]


# ---------------------------------------------------------------------------
# copredication: brute force over morphism assignments


IMPLICIT_ID = "id"    # the flexible identity a lexicon supplies implicitly


def _candidates(spec: LexSpec, target: str) -> list:
    out = [m for m in spec.morphs if m.target == target]
    if target == spec.source and not any(m.is_identity(spec.source)
                                         for m in out):
        out.append(Morph(IMPLICIT_ID, spec.source, False))
    return out


def _nodes(shape) -> list:
    """Conjunction nodes in postorder."""
    if not isinstance(shape, Conj):
        return []
    return _nodes(shape.left) + _nodes(shape.right) + [shape]


def expected_normal_forms(spec: LexSpec, shape: Conj) -> list:
    """Every admissible morphism assignment, as the normal form it must
    give, built directly with kernel constructors.

    Enumerates the full product of candidate morphisms over all conjunct
    slots and keeps the assignments in which every node's pair is
    admissible: equal names, or neither rigid.
    """
    sort_of = dict(spec.preds)
    nodes = _nodes(shape)

    def target(side):
        return spec.source if isinstance(side, Conj) else sort_of[side]

    slots = []
    for node in nodes:
        slots.append(_candidates(spec, target(node.left)))
        slots.append(_candidates(spec, target(node.right)))
    src = SortRef(spec.source)
    conn = Const("&", connective_type())
    out = []
    for choice in product(*slots):
        pairs = [choice[2 * i:2 * i + 2] for i in range(len(nodes))]
        if not all(f.name == g.name or not (f.rigid or g.rigid)
                   for f, g in pairs):
            continue
        by_node = {id(n): p for n, p in zip(nodes, pairs)}

        def coerce(m, x):
            if m.is_identity(spec.source):
                return x
            return App(Const(m.name, Arrow(src, SortRef(m.target))), x)

        def build(node, x):
            f, g = by_node[id(node)]
            return App(App(conn, side(node.left, f, x)),
                       side(node.right, g, x))

        def side(s, m, x):
            y = coerce(m, x)
            if isinstance(s, Conj):
                return build(s, y)
            return App(Const(s, Arrow(SortRef(sort_of[s]), PROP)), y)

        out.append(build(shape, Const(spec.const, src)))
    return out


def copred_problems(name, spec: LexSpec, shape: Conj, verdict, lex) -> list:
    want = expected_normal_forms(spec, shape)
    bad = []
    if verdict.status != FELICITOUS:
        bad.append(f"status {verdict.status}")
    if len(verdict.readings) != len(want):
        bad.append(f"{len(verdict.readings)} readings, brute force"
                   f" gives {len(want)}")
    got = [canon(r.term) for r in verdict.readings]
    if len(set(got)) != len(got):
        bad.append("two readings share a canonical form")
    if set(got) != {canon(t) for t in want}:
        bad.append("the readings differ from the enumerated normal forms")
    if name.startswith("and-") and not (
            len(verdict.readings) == 1
            and alpha_equiv(verdict.readings[0].term, want[0])):
        bad.append("the normal form is not the directly built conjunction")
    rigid = {m.name: m.rigid for m in spec.morphs}
    rigid.setdefault(IMPLICIT_ID, False)
    for r in verdict.readings:
        bad += reading_problems(r, lex.context, rigid,
                                conj_pairs(shape, r.used_morphisms))
    return [f"{name}: {b}" for b in sorted(set(bad))]


# ---------------------------------------------------------------------------
# command line output


@dataclass(frozen=True)
class TreeText:
    """What the CLI must print for one felicitous fixture tree, from the
    hand-written expectation and the in-process library (term texts)."""

    expect: Expect
    term: str = ""         # render_term of the first reading
    source: str = ""       # render_term of its source


def verdict_block(e: Expect, word: str) -> list:
    """The verdict format as README.md describes it."""
    if e.status == INFELICITOUS:
        return [f"INFELICITOUS: {e.rejection}"]
    lines = [f"FELICITOUS: {e.readings} reading(s)"]
    for i, (formula, morphs) in enumerate(zip(e.formulas, e.morphs), 1):
        lines.append(f"  {i}. {formula}")
        if morphs:
            lines.append("     via " + ", ".join(f"{m}@{word}"
                                                  for m in morphs))
        lines += [f"     presupposes {p}" for p in e.presups]
    return lines


SHARED_WORD = {"assinatura": "assinatura", "liverpool": "Liverpool",
               "montague": ""}


def _final_term(trace_lines) -> str:
    last = trace_lines[-1]
    return last.split(" ⇒ ", 1)[1] if " ⇒ " in last else last


def block_problems(line, block: list, fmt: str, texts: dict,
                   lexicon: str) -> list:
    """Problems with the block printed for one input line."""
    first = block[0] if block else ""
    if line.kind == "unbalanced":
        return [] if first.startswith("ERROR: ") else [f"{first!r}"]
    if line.kind == "unknown":
        ok = (first.startswith(("ERROR: ", "TYPE-ERROR: "))
              and f"unknown word '{line.word}'" in first)
        return [] if ok else [f"{first!r}"]
    if line.kind == "deep" and first.startswith("ERROR: "):
        return []
    t = texts[line.tree]
    e = t.expect
    if e.status == INFELICITOUS:
        want = f"INFELICITOUS: {e.rejection}"
        return [] if first == want else [f"{first!r}, expected {want!r}"]
    if fmt == "verdict":
        want = verdict_block(e, SHARED_WORD[lexicon])
        return [] if block == want else [f"{block!r}, expected {want!r}"]
    if fmt == "formula":
        return [] if block == list(e.formulas) else [f"{block!r}"]
    if fmt == "term":
        return [] if block == [t.term] else [f"{block!r}, expected {t.term!r}"]
    bad = []
    if first != t.source:
        bad.append(f"trace starts {first!r}, expected {t.source!r}")
    if _final_term(block) != t.term:
        bad.append(f"trace ends {block[-1]!r}, term format gives {t.term!r}")
    return bad


def expected_exit(lines) -> int:
    """README: 0 when every tree is felicitous, 1 otherwise."""
    ok = all(line.kind == "tree" and CORPUS[line.tree].status == FELICITOUS
             for line in lines)
    return 0 if ok else 1
