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

What an entry keeps.  A `Lexicon` holds its `sorts`, `predicates` and
`entries` and nothing derived from them.  Everything a lexicon determines
is kept by its `LexEntry`, in one mapping that `_kept` alone reads and
fills, under one rule: a result is built under the tree's fuel, kept only
if it was built within that fuel, and reused at any fuel at or above the
steps it was charged.  Keys are strings, ids or α-keys, never a
record, whose hash walks its term.  An entry keeps what
`candidates(entry, frm, to)` finds (the morphisms, or None where it
raises `LexiconError`; the implicit identity is built once per entry and
type) per pair of α-keys, and each `coercion_pairs(entry, xi, alpha,
beta)` plan per triple; both cost no steps.  `coercion_pairs` returns the
pairs that route one referent of `xi` to both conjuncts' domains, one
morphism twice or no rigid one, and the refused pairs with their
reasons.  Each error message, for an entry with no coercions from a type
or a side with no morphism, is written anew on each call, in the
caller's own types.

The entry also keeps its word's leaf node, charged its term's steps; the
`THE` node over it, charged its claim's, one more for a noun that is an
abstraction; and the argument routed through each morphism, such as
`t3(lpl)` or `f_phi(iota[v](assi))`, charged the morphism term's steps
and the contractions where it meets the argument, and keyed by the
morphism's id; the argument's own steps are added where the route is
used.  The entry holds every morphism a route is keyed by, a declared one
in its `morphisms` and the implicit identity in its kept `candidates`
answer, so the id stays its own.  "One morphism twice" means one object
twice, not one name: a rigid morphism declared as `id` on a word still
excludes the word's implicit identity.  So a word's coercions are built,
read and printed once per lexicon, and a replaced entry keeps nothing.
What is kept never changes a verdict.  `LexEntry._kept` is a class
default None; an entry's own mapping lives in its instance dict, its
fields in slots.
"""

from __future__ import annotations

import re
from itertools import product, repeat

from .kernel import (Abs, App, Arrow, Context, KernelError, PROP, ParseError,
                     Term, TyApp, Type, TypingError, Var, _parse_term,
                     alpha_equiv, alpha_key, parse_term, parse_type,
                     render_term, record, render_type, type_of)
from .logic import IOTA_NAME, _LOGICAL_CONSTANTS, _LOGICAL_TERMS, to_formula
from .reduction import _Meter, _normal_form

RIGID = "rigid"
FLEXIBLE = "flexible"

IMPLICIT_ID = "id"

# the two markers a parse tree may hold besides words (see `composition`)
THE_MARKER = "THE"
AND_MARKER = "AND"


class LexiconError(KernelError):
    pass


def is_predicate(ty) -> bool:
    """Whether `ty` is a predicate's, an arrow into t from its referent."""
    return isinstance(ty, Arrow) and ty.codomain == PROP


class Morphism(metaclass=record):
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


class LexEntry(metaclass=record):
    word: str
    principal: "Term"
    principal_type: "Type"
    morphisms: tuple = ()
    # kept data, outside the fields: everything `_kept` builds for it
    _kept = None

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
        return pt.domain if is_predicate(pt) else pt


class Lexicon:
    def __init__(self, sorts: set, predicates: dict,
                 entries: dict | None = None):
        self.sorts = sorts
        self.predicates = predicates
        self.entries = {} if entries is None else entries

    @property
    def context(self) -> Context:
        """A `Context` of the current declarations, built on each read."""
        return Context(sorts=self.sorts,
                       constants={**_LOGICAL_CONSTANTS, **self.predicates})

    def entry(self, word: str) -> LexEntry:
        if word not in self.entries:
            # a character that does not print is shown by its escape, so
            # an input word cannot write control bytes into the output
            shown = "".join(c if c.isprintable() else repr(c)[1:-1]
                            for c in word)
            raise LexiconError(f"unknown word '{shown}'")
        return self.entries[word]

    def validate(self):
        if not (set(self.sorts) - {"t"}):
            raise LexiconError("a lexicon needs at least one individual sort")
        for name in self.predicates:
            if name in _LOGICAL_CONSTANTS:
                raise LexiconError(f"'{name}' is a logical constant")
        _check_entries(self.entries.values(), self.context, repeat(()))


def _check_entries(entries, ctx, typed):
    """`_check_entry` on each of `entries` with its item of `typed`; an
    entry too deep to check is a `LexiconError`, not a `RecursionError`."""
    try:
        for e, types in zip(entries, typed):
            _check_entry(e, ctx, types)
    except RecursionError:
        raise LexiconError(  # untraced: RecursionError ends tracing
            "a type or term is nested too deeply") from None


def _check_entry(e: LexEntry, ctx: Context, types):
    """Check `e` against `ctx`, its terms typed as in `types`, the
    principal's first, when they were parsed against `ctx`."""
    if e.word in (THE_MARKER, AND_MARKER):
        # a tree reads the name as its marker, so no tree could reach it
        raise LexiconError(
            f"word '{e.word}': the name of a tree marker is not a word")
    ty = types[0] if types else type_of(e.principal, ctx)
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
    for i, m in enumerate(e.morphisms, 1):
        if m.rigidity not in (RIGID, FLEXIBLE):
            raise LexiconError(
                f"word '{e.word}': morphism {m.name} has rigidity"
                f" {m.rigidity!r}")
        if m.is_identity and not alpha_equiv(
                m.term, identity_morphism(m.source).term):
            raise LexiconError(
                f"word '{e.word}': endomorphism {m.name} must be the"
                f" identity function")
        mty = types[i] if types else type_of(m.term, ctx)
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
        if not (alpha_equiv(src, pt) or is_predicate(pt)
                and alpha_equiv(src, pt.domain)):
            raise LexiconError(
                f"word '{e.word}': morphisms leave from"
                f" {render_type(src)}, which is neither the principal"
                f" type nor its referent domain")


def _kept(entry: LexEntry, key, fuel, build, *args):
    """`(result, steps)` of `build(*args)`, which depends on `entry`
    alone and is charged `steps` under `fuel`; 0 for work that reduces
    nothing.

    The entry keeps it in one mapping, under a `key` of strings, ids or
    α-keys, never a record, whose hash walks its term.  A result is kept
    only when built within the fuel, and reused at any fuel at or above
    its steps; below them it is built anew.  An entry replaced in
    `Lexicon.entries` keeps nothing of the old one's.
    """
    kept = entry._kept
    if kept is None:
        object.__setattr__(entry, "_kept", kept := {})
    found = kept.get(key)
    if found is None or found[1] > fuel:
        found = build(*args)
        if found[1] <= fuel:
            kept[key] = found
    return found


def identity_morphism(ty) -> Morphism:
    term = Abs("x", ty, Var("x", ty))
    return Morphism(IMPLICIT_ID, term, ty, ty, FLEXIBLE)


def candidates(entry: LexEntry, frm, to) -> list:
    """Morphisms of `entry` from `frm` to `to`, in declaration order.

    When source and target coincide and the entry declares no identity,
    a flexible identity is supplied implicitly; a declared identity
    replaces it, keeping its own rigidity.

    The answer depends on the entry and the two types up to α, so the
    entry keeps it per pair of α-keys, None for an error, whose message
    is written in the caller's types.  An implicit identity is built
    once, over the entry's own coercion source, however it is asked for.
    """
    key = alpha_key(frm), alpha_key(to)
    found, _ = _kept(entry, key, 0, _candidates, entry, frm, to, key)
    if found is None:
        raise LexiconError(_no_coercions(entry, frm))
    return list(found)


def _no_coercions(entry, frm):
    return f"'{entry.word}' has no coercions from {render_type(frm)}"


def _candidates(entry, frm, to, key):
    """`candidates`' answer and its steps, none."""
    if not alpha_equiv(frm, entry.coercion_source):
        return None, 0
    found = tuple(m for m in entry.morphisms if alpha_equiv(m.target, to))
    if key[0] == key[1] and not any(m.is_identity for m in found):
        found += (identity_morphism(entry.coercion_source),)
    return found, 0


def coercion_pairs(entry: LexEntry, xi, alpha, beta):
    """The admissible morphism pairs routing one referent of `xi` to
    `alpha` and to `beta`, and the refusals, each `(assignment, reason)`.

    A pair is admissible when it is one morphism object twice, whatever
    its name, or holds no rigid one.  An entry with no coercions from
    `xi` is refused once, for both sides.  The answer depends on the
    entry and the three types up to α, so the entry keeps it per triple
    of α-keys, except for a refusal for want of morphisms, written anew
    in the caller's own types."""
    key = alpha_key(xi), alpha_key(alpha), alpha_key(beta)
    plan, _ = _kept(entry, key, 0, _plan, entry, xi, alpha, beta)
    if plan is None:
        return (), (((), _no_coercions(entry, xi)),)
    pairs, refused, missing = plan
    for side in missing:
        # in the caller's own types; beside a side with no morphism no
        # pair was refused, so this keeps the order of the log
        target = render_type((alpha, beta)[side])
        refused += ((), f"'{entry.word}' has no morphism from"
                        f" {render_type(xi)} to {target}"),
    return pairs, refused


def _plan(entry, xi, alpha, beta):
    """`(pairs, refused pairs, sides with no morphism)` for
    `coercion_pairs`, None with no coercions from `xi`; its steps, none."""
    try:
        fs, gs = (candidates(entry, xi, target) for target in (alpha, beta))
    except LexiconError:
        return None, 0
    pairs, refused = [], []
    for f, g in product(fs, gs):
        if f is g or RIGID not in (f.rigidity, g.rigidity):
            pairs.append((f, g))
        else:
            rigid, other = (f, g) if f.rigidity == RIGID else (g, f)
            refused.append(((f.name, g.name),
                            f"rigid {rigid.name} excludes {other.name}"))
    return (tuple(pairs), tuple(refused),
            tuple(i for i, ms in enumerate((fs, gs)) if not ms)), 0


# ---------------------------------------------------------------------------
# built-in polymorphic glue

_POLY_AND_SRC = (
    "Lam 'a. Lam 'b. lam P:'a -> t. lam Q:'b -> t. "
    "Lam 'c. lam x:'c. lam f:'c -> 'a. lam g:'c -> 'b. "
    "(#& (P (f x))) (Q (g x))"
)
# its binders, each of which costs one step to contract
POLY_AND_BINDERS = 8


_POLY_AND = parse_term(_POLY_AND_SRC,
                       Context(sorts={"t"}, constants=_LOGICAL_CONSTANTS))


def poly_and() -> "Term":
    """Conjunction of two predicates over distinct sorts.

    The result waits for a shared referent type together with a coercion
    into each conjunct's sort, then predicates both of one argument.
    Built once, at import: terms are immutable, so every caller shares it.
    """
    return _POLY_AND


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
    term = App(TyApp(_LOGICAL_TERMS[IOTA_NAME], sort), predicate)
    return term, to_formula(_normal_form(App(predicate, term), _Meter(fuel)))


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
_READABLE = ("#", "sorts:", "pred", "word", "morph")


def _fail(lineno, message, col=None):
    at = f"line {lineno}" if col is None else f"line {lineno}, column {col}"
    raise LexiconError(f"{at}: {message}")


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
        # a misspelt `sorts:` line, or one behind a byte-order mark,
        # declares none: the first line no pass can read is named first
        for lineno, line in enumerate(map(str.strip, lines), start=1):
            if line and not line.startswith(_READABLE):
                _fail(lineno, f"cannot read {line!r}")
        raise LexiconError("a lexicon needs at least one individual sort")

    lex = Lexicon(sorts=sorts, predicates={})
    # the one context every line is parsed against; a `pred` line adds its
    # constant in place
    ctx = Context(sorts=sorts, constants=_LOGICAL_CONSTANTS)
    # the latest word's name, term, type and morphisms so far: its entry
    # is built once, when the next word begins or the file ends; `typed`
    # gets its terms' types
    word, typed = None, []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or _SORTS_RE.match(line):
            continue
        # where `line` begins in the file's line
        lead = len(raw) - len(raw.lstrip())
        if line.startswith("pred"):
            _load_pred(lex, ctx, line, lineno, lead)
        elif line.startswith("word"):
            _enter(lex, word, typed)
            word = _load_word(lex, ctx, line, lineno, lead)
        elif line.startswith("morph"):
            if word is None:
                _fail(lineno, "a morph line needs a preceding word")
            _load_morph(ctx, line, lineno, lead, word)
        else:
            _fail(lineno, f"cannot read {line!r}")
    _enter(lex, word, typed)
    _check_entries(lex.entries.values(), ctx, typed)
    return lex


def _load_pred(lex, ctx, line, lineno, lead):
    m = _PRED_RE.match(line)
    if not m:
        _fail(lineno, "expected 'pred <name> : <type>'")
    name, ty_src = m.groups()
    if name in ctx.constants:
        _fail(lineno, f"constant '{name}' already declared")
    # `parse_type` checks the type's sorts against the context's
    ty = _parse(lineno, parse_type, ty_src, ctx, lead + m.start(2))
    lex.predicates[name] = ctx.constants[name] = ty


def _load_word(lex, ctx, line, lineno, lead) -> tuple:
    """The word's `(name, term, type, [], [term's type])`, for its
    morphisms and their terms' types to follow; every word before it is
    in `lex.entries`."""
    m = _WORD_RE.match(line)
    if not m:
        _fail(lineno, "expected 'word <name> : <type> = <term>'")
    name, ty_src, term_src = m.groups()
    if name in lex.entries:
        _fail(lineno, f"word '{name}' already declared")
    ty = _parse(lineno, parse_type, ty_src, ctx, lead + m.start(2))
    term, term_ty = _parse(lineno, _parse_term, term_src, ctx,
                           lead + m.start(3))
    return name, term, ty, [], [term_ty]


def _enter(lex, word, typed):
    if word is not None:
        name, term, ty, morphs, types = word
        lex.entries[name] = LexEntry(name, term, ty, tuple(morphs))
        typed.append(types)


def _load_morph(ctx, line, lineno, lead, word):
    """Add the line's morphism, and its term's type, to `word`'s."""
    m = _MORPH_RE.match(line)
    if not m:
        _fail(lineno,
              "expected 'morph <name> : <type> = <term> [rigid|flexible]'")
    name, ty_src, term_src, rigidity = m.groups()
    ty = _parse(lineno, parse_type, ty_src, ctx, lead + m.start(2))
    if not isinstance(ty, Arrow):
        _fail(lineno, f"a morphism needs an arrow type, got {ty_src.strip()!r}")
    term, term_ty = _parse(lineno, _parse_term, term_src, ctx,
                           lead + m.start(3))
    word[3].append(Morphism(name, term, ty.domain, ty.codomain, rigidity))
    word[4].append(term_ty)


def _parse(lineno, fn, src, env, offset):
    """`fn(src, env)`, where `src` begins `offset` characters into the
    file's line `lineno`: a parse error's column counts in that line."""
    try:
        return fn(src, env)
    except ParseError as err:
        _fail(lineno, err.message, None if err.col is None
              else offset + err.col)
    except TypingError as err:
        _fail(lineno, str(err))


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
