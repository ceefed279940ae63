"""Lexica: words with a principal term and a stock of coercion morphisms.

A lexicon file is line oriented:

    # a comment takes a whole line; '#' elsewhere marks a constant
    sorts: T F P Pl
    pred won : F -> t
    word Liverpool : T = #lpl
      morph Id : T -> T = lam x:T. x [flexible]
      morph t1 : T -> F = #t1 [rigid]

A `morph` line attaches to the most recent `word`.  Every morphism of an
entry must leave from one common source type: the principal type itself,
or its domain when the principal term is a predicate (an arrow into t).
Declarations are processed in order, so a `pred` must precede its first
use.
"""

from __future__ import annotations

import re
from functools import cache, cached_property

from .kernel import (Abs, App, Arrow, Const, Context, KernelError, PROP,
                     ParseError, Term, TyApp, Type, TypingError, Var,
                     alpha_equiv, parse_term, parse_type, render_term,
                     record, render_type, type_of)
from .logic import Formula, choice_type, logical_constants, to_formula
from .reduction import _Meter, _normal_form

RIGID = "rigid"
FLEXIBLE = "flexible"

IMPLICIT_ID = "id"


class LexiconError(KernelError):
    pass


@record
class Morphism:
    name: str
    term: "Term"
    source: "Type"
    target: "Type"
    rigidity: str

    @property
    def is_identity(self) -> bool:
        return alpha_equiv(self.source, self.target)

    def __str__(self):
        arrow = render_type(Arrow(self.source, self.target))
        return f"{self.name} : {arrow} [{self.rigidity}]"


@record
class LexEntry:
    word: str
    principal: "Term"
    principal_type: "Type"
    morphisms: tuple = ()

    @property
    def coercion_source(self) -> "Type":
        """The type coercions of this word leave from.

        With declared morphisms it is their shared source.  Without any,
        a predicate word coerces its referent (the domain), anything
        else coerces the principal itself.
        """
        if self.morphisms:
            return self.morphisms[0].source
        pt = self.principal_type
        if isinstance(pt, Arrow) and pt.codomain == PROP:
            return pt.domain
        return pt


class Lexicon:
    def __init__(self, sorts: set, predicates: dict,
                 entries: dict | None = None):
        self.sorts = sorts
        self.predicates = predicates
        self.entries = {} if entries is None else entries
        # word, or (word, morphism name) -> (owner, normal form, steps,
        # type): see `_normal`
        self._normals = {}

    @cached_property
    def context(self) -> Context:
        constants = dict(logical_constants())
        constants.update(self.predicates)
        return Context(sorts=set(self.sorts), constants=constants)

    def entry(self, word: str) -> LexEntry:
        if word not in self.entries:
            raise LexiconError(f"unknown word '{word}'")
        return self.entries[word]

    def _normal(self, entry: LexEntry, step, m: Morphism | None = None):
        """The normal form and the type of `entry`'s principal term, or of
        the term of its morphism `m`, with the steps that normal form
        takes charged to the meter `step`.

        Each declared term is normalized once per lexicon, on first use.
        Its owner, the entry or the morphism, is checked with `is`, so a
        record replaced in `entries` misses, and a term that ran out of
        the caller's fuel is not kept.  An implicit identity, built anew
        for every use, is normalized in place of being kept.
        """
        if m is None:
            key, owner, term = entry.word, entry, entry.principal
        elif any(m is d for d in entry.morphisms):
            key, owner, term = (entry.word, m.name), m, m.term
        else:
            return _normal_form(m.term, step), Arrow(m.source, m.target)
        hit = self._normals.get(key)
        if hit is None or hit[0] is not owner:
            before = step.spent
            nf = _normal_form(term, step)
            hit = self._normals[key] = (owner, nf, step.spent - before,
                                        type_of(term))
        else:
            step(hit[2])
        return hit[1], hit[3]

    def validate(self):
        if not (set(self.sorts) - {"t"}):
            raise LexiconError("a lexicon needs at least one individual sort")
        reserved = set(logical_constants())
        for name in self.predicates:
            if name in reserved:
                raise LexiconError(f"'{name}' is a logical constant")
        for e in self.entries.values():
            self._check_entry(e)

    def _check_entry(self, e: LexEntry):
        ty = type_of(e.principal, self.context)
        if not alpha_equiv(ty, e.principal_type):
            raise LexiconError(
                f"word '{e.word}': term has type {render_type(ty)},"
                f" declared {render_type(e.principal_type)}")
        src = e.coercion_source
        names = [m.name for m in e.morphisms]
        if len(names) != len(set(names)):
            dup = next(n for n in names if names.count(n) > 1)
            raise LexiconError(
                f"word '{e.word}': morphism name '{dup}' declared twice")
        for m in e.morphisms:
            if m.rigidity not in (RIGID, FLEXIBLE):
                raise LexiconError(
                    f"word '{e.word}': morphism {m.name} has rigidity"
                    f" {m.rigidity!r}")
            if m.is_identity and not alpha_equiv(
                    m.term, Abs("x", m.source, Var("x", m.source))):
                raise LexiconError(
                    f"word '{e.word}': endomorphism {m.name} must be the"
                    f" identity function")
            mty = type_of(m.term, self.context)
            if not alpha_equiv(mty, Arrow(m.source, m.target)):
                raise LexiconError(
                    f"word '{e.word}': morphism {m.name} has type"
                    f" {render_type(mty)}, declared"
                    f" {render_type(Arrow(m.source, m.target))}")
            if not alpha_equiv(m.source, src):
                raise LexiconError(
                    f"word '{e.word}': morphism {m.name} leaves from"
                    f" {render_type(m.source)}, the entry coerces from"
                    f" {render_type(src)}")
        if e.morphisms:
            pt = e.principal_type
            ok = alpha_equiv(src, pt) or (
                isinstance(pt, Arrow) and pt.codomain == PROP
                and alpha_equiv(src, pt.domain))
            if not ok:
                raise LexiconError(
                    f"word '{e.word}': morphisms leave from"
                    f" {render_type(src)}, which is neither the principal"
                    f" type nor its referent domain")


def identity_morphism(ty) -> Morphism:
    term = Abs("x", ty, Var("x", ty))
    return Morphism(IMPLICIT_ID, term, ty, ty, FLEXIBLE)


def candidates(entry: LexEntry, frm, to) -> list:
    """Morphisms of `entry` from `frm` to `to`, in declaration order.

    When source and target coincide and the entry declares no identity,
    a flexible identity is supplied implicitly; a declared identity
    replaces it, keeping its own rigidity.
    """
    if not alpha_equiv(frm, entry.coercion_source):
        raise LexiconError(
            f"'{entry.word}' has no coercions from {render_type(frm)}")
    out = [m for m in entry.morphisms if alpha_equiv(m.target, to)]
    if alpha_equiv(frm, to) and not any(m.is_identity for m in out):
        out.append(identity_morphism(frm))
    return out


# ---------------------------------------------------------------------------
# built-in polymorphic glue

_POLY_AND_SRC = (
    "Lam 'a. Lam 'b. lam P:'a -> t. lam Q:'b -> t. "
    "Lam 'c. lam x:'c. lam f:'c -> 'a. lam g:'c -> 'b. "
    "(#& (P (f x))) (Q (g x))"
)


@cache
def poly_and() -> "Term":
    """Conjunction of two predicates over distinct sorts.

    The result waits for a shared referent type together with a coercion
    into each conjunct's sort, then predicates both of one argument.
    Built once: terms are immutable, so every caller shares it.
    """
    ctx = Context(sorts={"t"}, constants=logical_constants())
    return parse_term(_POLY_AND_SRC, ctx)


def iota(sort, predicate, fuel: int = 10000):
    """A definite referent for `predicate`, with its presupposition.

    Returns `(term, formula)`: the choice term of type `sort`, and the
    claim that the chosen referent satisfies the predicate.
    """
    pty = type_of(predicate)
    if not alpha_equiv(pty, Arrow(sort, PROP)):
        raise LexiconError(
            f"a referent of {render_type(sort)} needs a predicate of"
            f" {render_type(Arrow(sort, PROP))}, got {render_type(pty)}")
    term, claim = _iota(sort, predicate, _Meter(fuel))
    return term, to_formula(claim)


def _iota(sort, predicate, step):
    """`iota` unchecked, for a predicate of type `sort -> t`: the choice
    term and the claim's normal form, `step()` counting its steps."""
    term = App(TyApp(Const("iota", choice_type()), sort), predicate)
    return term, _normal_form(App(predicate, term), step)


# ---------------------------------------------------------------------------
# the file format

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_SORTS_RE = re.compile(r"^sorts:\s*(.*)$")
_PRED_RE = re.compile(rf"^pred\s+({_IDENT})\s*:\s*(.+)$")
_WORD_RE = re.compile(rf"^word\s+({_IDENT})\s*:\s*(.+?)\s*=\s*(.+)$")
_MORPH_RE = re.compile(
    rf"^morph\s+({_IDENT})\s*:\s*(.+?)\s*=\s*(.+?)\s*"
    r"\[(rigid|flexible)\]\s*$")
_IDENT_RE = re.compile(rf"^{_IDENT}$")


def _fail(lineno, message):
    raise LexiconError(f"line {lineno}: {message}")


def load_lexicon(text: str) -> Lexicon:
    lines = text.splitlines()
    sorts = {"t"}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        m = _SORTS_RE.match(line)
        if not m:
            continue
        for name in m.group(1).split():
            if not _IDENT_RE.match(name):
                _fail(lineno, f"bad sort name {name!r}")
            sorts.add(name)
    if not (sorts - {"t"}):
        raise LexiconError("a lexicon needs at least one individual sort")

    lex = Lexicon(sorts=sorts, predicates={})
    current: str | None = None
    pending: list = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or _SORTS_RE.match(line):
            continue
        if line.startswith("pred"):
            current = _flush(lex, current, pending)
            _load_pred(lex, line, lineno)
        elif line.startswith("word"):
            current = _flush(lex, current, pending)
            current = _load_word(lex, line, lineno)
        elif line.startswith("morph"):
            if current is None:
                _fail(lineno, "a morph line needs a preceding word")
            pending.append(_load_morph(lex, line, lineno))
        else:
            _fail(lineno, f"cannot read {line!r}")
    _flush(lex, current, pending)
    try:
        lex.validate()
    except RecursionError:
        raise LexiconError("a type or term is nested too deeply") from None
    return lex


def _flush(lex, current, pending):
    if current is not None and pending:
        e = lex.entries[current]
        lex.entries[current] = LexEntry(
            e.word, e.principal, e.principal_type, tuple(pending))
        pending.clear()
    return current


def _load_pred(lex, line, lineno):
    m = _PRED_RE.match(line)
    if not m:
        _fail(lineno, "expected 'pred <name> : <type>'")
    name, ty_src = m.groups()
    if name in lex.predicates or name in logical_constants():
        _fail(lineno, f"constant '{name}' already declared")
    lex.predicates[name] = _parse(lineno, parse_type, ty_src, lex.sorts)
    lex.__dict__.pop("context", None)


def _load_word(lex, line, lineno) -> str:
    m = _WORD_RE.match(line)
    if not m:
        _fail(lineno, "expected 'word <name> : <type> = <term>'")
    name, ty_src, term_src = m.groups()
    if name in lex.entries:
        _fail(lineno, f"word '{name}' already declared")
    ty = _parse(lineno, parse_type, ty_src, lex.sorts)
    term = _parse(lineno, parse_term, term_src, lex.context)
    lex.entries[name] = LexEntry(name, term, ty)
    return name


def _load_morph(lex, line, lineno) -> Morphism:
    m = _MORPH_RE.match(line)
    if not m:
        _fail(lineno,
              "expected 'morph <name> : <type> = <term> [rigid|flexible]'")
    name, ty_src, term_src, rigidity = m.groups()
    ty = _parse(lineno, parse_type, ty_src, lex.sorts)
    if not isinstance(ty, Arrow):
        _fail(lineno, f"a morphism needs an arrow type, got {ty_src.strip()!r}")
    term = _parse(lineno, parse_term, term_src, lex.context)
    return Morphism(name, term, ty.domain, ty.codomain, rigidity)


def _parse(lineno, fn, src, env):
    try:
        return fn(src, env)
    except (ParseError, TypingError) as err:
        _fail(lineno, str(err))
    except RecursionError:
        _fail(lineno, "nested too deeply")


def save_lexicon(lex: Lexicon) -> str:
    """Render a lexicon back into its file format."""
    out = ["sorts: " + " ".join(sorted(lex.sorts - {"t"}))]
    for name, ty in lex.predicates.items():
        out.append(f"pred {name} : {render_type(ty)}")
    for e in lex.entries.values():
        out.append(f"word {e.word} : {render_type(e.principal_type)}"
                   f" = {render_term(e.principal)}")
        for m in e.morphisms:
            out.append(f"  morph {m.name} :"
                       f" {render_type(Arrow(m.source, m.target))}"
                       f" = {render_term(m.term)} [{m.rigidity}]")
    return "\n".join(out) + "\n"
