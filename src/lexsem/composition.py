"""Composition of binary parse trees into logical readings.

Trees are written as s-expressions over lexicon words plus two builtin
markers: `THE`, which turns a predicate noun into a definite referent,
and `AND`, which conjoins two predicates over one shared argument.  An
application may route its argument through any of the argument word's
coercion morphisms; a shared argument takes one morphism per conjunct,
and a rigid morphism tolerates no distinct partner at the same node.

A nested conjunction is built over the shared argument itself: the `y`
of its source `λy. S` is in the source alone, and each of its readings
is `S` with the argument already substituted.  The outer node reaches
that conjunct through an identity, which `Lexicon.validate` forces to be
`λx. x`, so it takes the reading as it stands for its half.  So the
parts that nested readings share stay shared in the outer readings (see
`kernel` on sharing), the argument is substituted into each of them
once, and no binder of a lexicon term is renamed to keep clear of `y`,
so a morphism's binders print alike however the conjuncts are bracketed.
"""

from __future__ import annotations

from itertools import product, starmap

from .kernel import (Abs, App, Arrow, Forall, KernelError, PROP, ParseError,
                     Term, TyApp, Type, TypeVar, Var, _apply, alpha_equiv,
                     alpha_key, record, render_type, subst_type, type_of)
from .lexicon import (AND_MARKER, THE_MARKER, LexEntry, Lexicon, LexiconError,
                      POLY_AND_BINDERS, _kept, candidates, coercion_pairs,
                      is_predicate, poly_and)
from .logic import AND_NAME, IOTA_NAME, _LOGICAL_TERMS, Formula, _formula
from .reduction import FuelExhausted, _Meter, _built, _normal_form

FELICITOUS = "felicitous"
INFELICITOUS = "infelicitous"
TYPE_ERROR = "typeError"
RESOURCE_LIMIT = "resourceLimit"

_CONJUNCTION = _LOGICAL_TERMS[AND_NAME]
_CHOICE = _LOGICAL_TERMS[IOTA_NAME]


class CompositionError(KernelError):
    def __init__(self, message, path=()):
        at = ".".join(str(c) for c in path) or "ε"
        super().__init__(f"at {at}: {message}")
        self.path = tuple(path)


# ---------------------------------------------------------------------------
# parse trees

class Leaf(metaclass=record):
    word: str

    def __str__(self):
        return self.word


class Node(metaclass=record):
    fun: "ParseTree"
    arg: "ParseTree"

    def __str__(self):
        return f"({self.fun} {self.arg})"


ParseTree = Leaf | Node


def parse_tree(text: str) -> ParseTree:
    """Read an s-expression; longer lists associate to the left."""
    # a token is a parenthesis or a run of anything else up to whitespace
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def fail(msg, i=None):
        # the column of the `i`-th token, or of the end of the text, is
        # only worked out for an error: a token starts at the first match
        # of its text after the end of the token before it
        at, end = len(text), 0
        for tok in () if i is None else tokens[:i + 1]:
            at = text.find(tok, end)
            end = at + len(tok)
        raise ParseError(msg, 1, at + 1)

    # one [token index, items folded so far] per open '(': no recursion,
    # so the nesting depth is bounded by memory alone
    stack = []
    tree = None
    for i, tok in enumerate(tokens):
        if tree is not None:
            fail("trailing input after tree", i)
        if tok == "(":
            stack.append([i, None])
            continue
        if tok == ")":
            if not stack:
                fail("unexpected ')'", i)
            start, value = stack.pop()
            if value is None:
                fail("empty tree", start)
        else:
            value = Leaf(tok)
        if not stack:
            tree = value
        else:
            top = stack[-1]
            top[1] = value if top[1] is None else Node(top[1], value)
    if stack:
        fail("missing ')'")
    if tree is None:
        fail("unexpected end of tree")
    return tree


# ---------------------------------------------------------------------------
# results

class Reading(metaclass=record):
    term: "Term"
    formula: Formula | None
    used_morphisms: tuple = ()
    presuppositions: tuple = ()
    source: Term | None = None


class Rejection(metaclass=record):
    """A morphism assignment that was tried and refused, with the reason."""

    assignment: tuple
    reason: str

    def __str__(self):
        return self.reason


class Verdict(metaclass=record):
    status: str
    readings: tuple = ()
    rejection_log: tuple = ()
    notes: tuple = ()
    error: str | None = None


# ---------------------------------------------------------------------------
# internal evaluation state

class _State:
    def __init__(self, lex: Lexicon, fuel: int):
        self.lex = lex
        self.fuel = fuel
        self.rejections = []
        self.copred_nodes = 0


class _Alt(metaclass=record):
    """One reading of a node: its source term, that term's normal form,
    and the reduction steps charged to it, which are the steps of all its
    parts plus the contractions made where they meet.  `nf` is None
    exactly when `steps` exceed the fuel: nothing is built past it.  A
    nested conjunct's `nf` is its reading already applied to the
    argument; only `_copred_node` reads it, routing the argument through
    an identity that `Lexicon.validate` forces to be `λx. x`.  `made` is
    `(shape, *parts)`: the node's shape (see `_WORD`) and the readings of
    its children it was built from, which `_derivation` walks; readings
    with the same parts share the tuple."""

    term: "Term"
    nf: Term | None
    steps: int
    morphs: tuple = ()
    presups: tuple = ()
    made: tuple = ()


# a node's kind, then where each part of its readings' `made` sits below
# it: an applied conjunction's shared argument comes first, so that its
# line prints first
_WORD = ("word",)
_THE = ("THE", (1,))
_APPLY = ("apply", (0,), (1,))
_AND = ("AND", (1,), (0, 0, 1), (0, 1))
_NESTED = ("AND", (0, 1), (1,))


class _Node(metaclass=record):
    """A tree node with its readings so far.  A coercion only reroutes an
    argument inside one application, so every alternative has the
    node's type; they differ in the morphisms chosen below the node and
    in their presuppositions.  `entry` is a leaf word's, kept by `THE`.
    A leaf's node, and `THE`'s over it, is kept by its entry and shared
    between trees, so its `alts` is a tuple."""

    type: "Type"
    alts: list | tuple
    entry: LexEntry | None = None


class _Marker(metaclass=record):
    """`THE` or `AND`, with the conjuncts an `AND` has taken so far: each
    a _Node or a complete two-conjunct _Marker."""

    word: str
    conjuncts: tuple = ()


# a bare marker leaf's, the same record on every call
_BARE = {w: _Marker(w) for w in (THE_MARKER, AND_MARKER)}


# ---------------------------------------------------------------------------
# polymorphic application

def _type_args(fty, aty):
    """The types a quantified functor's peeled variables are bound to: each
    the subtree of `aty` at the variable's first free occurrence in the
    domain, or None when one has none or the body is no function type.
    Nothing is renamed or compared; `_applying` checks the instance."""
    peeled, core = [], fty
    while isinstance(core, Forall):
        peeled.append(core.var)
        core = core.body
    if not isinstance(core, Arrow):
        return None
    bind, todo = {}, [(core.domain, aty, set(peeled))]
    while todo:
        p, c, free = todo.pop()
        if isinstance(p, TypeVar) and p.name in free:
            bind.setdefault(p.name, c)
        elif isinstance(p, Arrow) and isinstance(c, Arrow):
            todo += (p.codomain, c.codomain, free), (p.domain, c.domain, free)
        elif isinstance(p, Forall) and isinstance(c, Forall):
            todo.append((p.body, c.body, free - {p.var}))
    return [bind[v] for v in peeled] if len(bind) == len(set(peeled)) else None


def _applying(fty, aty, arg_entry, path=()):
    """How a functor of type `fty` takes an argument of type `aty`.

    Returns `(type_args, morphisms, result_type)`: the types that
    instantiate a quantified functor, and the morphisms the argument may
    route through, None standing for a direct application.  No morphism
    means nothing fits.  A quantified functor's instance is kept only if
    its domain is α-equal to `aty`; the result type is taken with
    `type_of`'s own instantiation steps, so it is `==` to the applied
    term's type.
    """
    if isinstance(fty, Forall):
        inst = _type_args(fty, aty)
        for ty in inst or ():
            fty = subst_type(fty.body, fty.var, ty)
        if inst is None or not alpha_equiv(fty.domain, aty):
            return (), [], None
        return inst, [None], fty.codomain
    if not isinstance(fty, Arrow):
        raise CompositionError(f"{render_type(fty)} is not a function type",
                               path)
    if alpha_equiv(aty, fty.domain):
        return (), [None], fty.codomain
    try:
        ms = candidates(arg_entry, aty, fty.domain) if arg_entry else []
    except LexiconError:
        ms = []
    return (), ms, fty.codomain


def _applied(fun_term, type_args, arg_term, m):
    for ty in type_args:
        fun_term = TyApp(fun_term, ty)
    return App(fun_term, arg_term if m is None else App(m.term, arg_term))


def _applied_nf(fun_nf, type_args, arg_nf, step):
    """The normal form of `_applied` on normal parts, the argument's
    already routed through its morphism: only the redexes the application
    makes are contracted."""
    for ty in type_args:
        fun_nf = _apply(fun_nf, ty, step)
    return _apply(fun_nf, arg_nf, step)


def apply_with_coercion(fun_term, arg_term, arg_entry=None):
    """All ways to apply a functor to an argument.

    Returns `(term, morphism)` pairs: a direct application carries no
    morphism; on a type mismatch each of the argument entry's fitting
    morphisms yields one candidate.  An empty list means nothing fits.
    Coercion happens on the argument side only; a quantified functor
    admits no coercion.  Its type arguments are read off the argument's
    type, at each variable's first occurrence in the domain, and the
    instance is kept only if its domain is α-equivalent to that type.
    """
    inst, ms, _ = _applying(type_of(fun_term), type_of(arg_term), arg_entry)
    return [(_applied(fun_term, inst, arg_term, m), m) for m in ms]


# ---------------------------------------------------------------------------
# node semantics

def _leaf(leaf: Leaf, path, st: _State):
    if leaf.word in _BARE:
        return _BARE[leaf.word]
    try:
        entry = st.lex.entry(leaf.word)
    except LexiconError as err:
        raise CompositionError(str(err), path) from err
    # the word's node depends on its entry alone, so the entry keeps it
    # (see `lexicon._kept`)
    return _kept(entry, "leaf", st.fuel, _leaf_node, entry, st.fuel)[0]


def _leaf_node(entry: LexEntry, fuel):
    nf, steps = _built(fuel, 0,
                       lambda step: _normal_form(entry.principal, step))
    return _Node(type_of(entry.principal),
                 (_Alt(entry.principal, nf, steps, made=(_WORD,)),),
                 entry), steps


def _routed(entry, a: _Alt, m, fuel):
    """`(nf, steps)` of the argument reading `a` of `entry` routed
    through the morphism `m`, or of `a` itself for None.  A word is
    routed from its coercion source alone, the type of its leaf node or
    of `THE`'s over it, never both, so the entry keeps the route by the
    id of `m` (see `lexicon._kept`), and holds `m` too.  Its steps are
    `a`'s, the morphism's lexicon steps and the contractions where the
    two meet; the route is charged the last two."""
    if m is None or a.nf is None:
        return a.nf, a.steps
    nf, steps = _kept(entry, id(m), fuel, _route, a, m, fuel)
    return nf, a.steps + steps


def _route(a: _Alt, m, fuel):
    return _built(fuel, 0, lambda step: _apply(
        _normal_form(m.term, step), a.nf, step))


def _apply_node(fun: _Node, arg: _Node, path, st: _State):
    inst, ms, ty = _applying(fun.type, arg.type, arg.entry, path)
    if not ms:
        raise CompositionError(f"cannot apply {render_type(fun.type)}"
                               f" to {render_type(arg.type)}", path)
    # the argument routed through each morphism is kept by its entry, so
    # a word's coercions are built once per lexicon (see `_routed`)
    alts = []
    for f, a in product(fun.alts, arg.alts):
        made = _APPLY, f, a
        for m in ms:
            morphs = f.morphs + a.morphs
            if m is not None:
                morphs += ((arg.entry.word, path + (1,), m.name),)
            a_nf, a_steps = _routed(arg.entry, a, m, st.fuel)
            nf, steps = _built(
                st.fuel, f.steps + a_steps,
                lambda step: _applied_nf(f.nf, inst, a_nf, step))
            alts.append(_Alt(_applied(f.term, inst, a.term, m), nf, steps,
                             morphs, f.presups + a.presups, made))
    return _Node(ty, alts)


def _the_node(noun: _Node, path, st: _State):
    if not is_predicate(noun.type):
        raise CompositionError(f"{THE_MARKER} needs a predicate,"
                               f" got {render_type(noun.type)}", path)
    # over a word's leaf node, whose one reading is its principal term,
    # the node depends on the entry alone: the entry keeps it with its
    # claim's steps (see `lexicon._kept`)
    entry = noun.entry
    if entry is None or noun.alts[0].term is not entry.principal:
        return _the(noun, st.fuel)[0]
    return _kept(entry, THE_MARKER, st.fuel, _the, noun, st.fuel)[0]


def _the(noun: _Node, fuel):
    """`THE`'s node over `noun`, and the steps of its last claim: a leaf
    node has one reading."""
    sort = noun.type.domain
    choice = TyApp(_CHOICE, sort)
    alts, steps = [], 0
    for alt in noun.alts:
        term = App(choice, alt.term)
        nf = App(choice, alt.nf)
        # the claim is charged its noun's steps and its own, apart from
        # the reading; past the fuel it is held back like a reading, with
        # no normal form and the steps it was charged.  The choice term
        # has a constant at its head, so substituting it into the noun's
        # normal form makes no redex: the claim costs one step for a noun
        # that is an abstraction, none otherwise
        claim, steps = _built(fuel, alt.steps,
                              lambda step: _apply(alt.nf, nf, step))
        if claim is None:
            alts.append(_Alt(term, None, steps, alt.morphs, alt.presups,
                             (_THE, alt)))
        else:
            alts.append(_Alt(term, nf, alt.steps, alt.morphs,
                             alt.presups + (_formula(claim),),
                             (_THE, alt)))
    return _Node(sort, tuple(alts), noun.entry), steps


def _nested(conj: _Marker, arg: _Node, path, st: _State):
    """A nested conjunction at the shared referent type: a predicate
    `λy. S` with its own morphism choices made, `y` being in the source
    alone, where it cannot capture a constant.  A reading's `nf` is `S`
    already applied to the argument (see `_Alt`)."""
    xi = arg.type
    (a,) = arg.alts
    # the argument's steps are its own node's; an argument past the fuel
    # leaves the placeholder past it, by `_Alt`'s invariant
    spent = 0 if a.nf is not None else a.steps
    shared = _Node(xi, (_Alt(Var("y", xi), a.nf, spent),), arg.entry)
    inner = _copred_node(conj, shared, path, st)
    # the shared argument is a part of the outer node, not of this one
    return _Node(Arrow(xi, PROP),
                 [_Alt(Abs("y", xi, i.term), i.nf, i.steps, i.morphs,
                       i.presups, (_NESTED,) + i.made[2:])
                  for i in inner.alts])


def _copred_node(fun: _Marker, arg: _Node, path, st: _State):
    st.copred_nodes += 1
    if arg.entry is None:
        raise CompositionError(
            "a shared argument must carry a lexical entry", path)
    (a,) = arg.alts    # a word's leaf node or THE's over it: one reading
    left, right = (_nested(c, arg, path, st) if isinstance(c, _Marker)
                   else c for c in fun.conjuncts)
    for side in (left, right):
        if not is_predicate(side.type):
            raise CompositionError(f"a conjunct must be a one-place predicate,"
                                   f" got {render_type(side.type)}", path)
    xi, alpha, beta = arg.type, left.type.domain, right.type.domain
    # a pair is only tried when each conjunct has a reading to pair
    pairs, refused = (coercion_pairs(arg.entry, xi, alpha, beta)
                      if left.alts and right.alts else ((), ()))
    st.rejections += starmap(Rejection, refused)
    entry, halves, arg_path = arg.entry, {}, path + (1,)

    # a half, one conjunct applied to the argument routed through one
    # morphism, is built once per node for each such pair, together with
    # the partial application `#& L` that every reading holding it on the
    # left shares; the routed argument is built once per lexicon (see
    # `_routed`).  A word that is both conjuncts holds one reading on
    # both sides, so one half may serve on the left and on the right
    def half(c, m):
        key = id(c), id(m)    # each lives as long as the node
        if key not in halves:
            a_nf, a_steps = _routed(entry, a, m, st.fuel)
            if c.made[0] is _NESTED:    # applied already: one more for λy
                nf, steps = _built(st.fuel, c.steps + a_steps + 1,
                                   lambda step: c.nf)
            else:
                nf, steps = _built(st.fuel, c.steps + a_steps,
                                   lambda step: _apply(c.nf, a_nf, step))
            halves[key] = (nf, steps,
                           None if nf is None else App(_CONJUNCTION, nf))
        return halves[key]

    # a reading is poly_and applied to its parts, and its normal form is
    # poly_and's body, #& L R, over its two halves
    head = TyApp(TyApp(poly_and(), alpha), beta)
    alts = []
    for l, r in product(left.alts, right.alts) if pairs else ():
        # every pair shares the source's prefix and the parts' records
        term = App(TyApp(App(App(head, l.term), r.term), xi), a.term)
        morphs = l.morphs + r.morphs + a.morphs
        presups = l.presups + r.presups + a.presups
        made, last = (_AND, a, l, r), None
        for f, g in pairs:
            if f is not last:    # pairs come in runs of one left morphism
                last, term_f = f, App(term, f.term)
            recs = morphs + ((entry.word, arg_path, f.name),
                             (entry.word, arg_path, g.name))
            _, l_steps, l_partial = half(l, f)
            r_nf, r_steps, _ = half(r, g)
            # the argument both halves hold is charged once
            steps = POLY_AND_BINDERS + l_steps + r_steps - a.steps
            nf = App(l_partial, r_nf) if steps <= st.fuel else None
            alts.append(_Alt(App(term_f, g.term), nf, steps, recs, presups,
                             made))
    return _Node(PROP, alts)


def _node(tree, path, st: _State):
    if isinstance(tree, Leaf):
        return _leaf(tree, path, st)
    lv = _node(tree.fun, path + (0,), st)
    rv = _node(tree.arg, path + (1,), st)
    if not isinstance(lv, _Marker):
        if isinstance(rv, _Marker):
            raise CompositionError("a marker cannot be an argument", path)
        return _apply_node(lv, rv, path, st)
    if lv.word == THE_MARKER:
        if isinstance(rv, _Marker):
            raise CompositionError(f"{THE_MARKER} needs a noun", path)
        return _the_node(rv, path, st)
    if len(lv.conjuncts) < 2:
        # a conjunct is a predicate or a complete nested conjunction
        if isinstance(rv, _Marker) and len(rv.conjuncts) < 2:
            raise CompositionError(f"{AND_MARKER} needs a predicate", path)
        return _Marker(AND_MARKER, lv.conjuncts + (rv,))
    if isinstance(rv, _Marker):
        raise CompositionError("a conjunction needs a term argument", path)
    return _copred_node(lv, rv, path, st)


def _finish(node: _Node, st: _State):
    # terms built from checked parts only: a reading is closed, normal and
    # of the root's type, so a root of type t reads as a formula with no
    # check left to make
    alts = node.alts
    for alt in alts:
        if alt.nf is None:
            # past the fuel, by `_Alt`'s invariant: the meter raises
            _Meter(st.fuel)(alt.steps)
    if len(alts) > 1:
        # keep the first reading of each normal form, up to α-equivalence
        first = {}
        for alt in alts:
            first.setdefault(alpha_key(alt.nf), alt)
        alts = list(first.values())
    prop = node.type == PROP
    return alts, [Reading(alt.nf, _formula(alt.nf) if prop else None,
                          alt.morphs, alt.presups, alt.term) for alt in alts]


def _run(tree, lex, fuel):
    if fuel < 1:
        raise ValueError("fuel must be >= 1")
    st = _State(lex, fuel)
    value = _node(tree, (), st)
    if isinstance(value, _Marker):
        raise CompositionError("the tree is an unapplied marker")
    return _finish(value, st), st


def compose(tree: ParseTree, lex: Lexicon, fuel: int = 10000):
    """All readings of a tree, deduplicated up to alpha-equivalence.

    Raises ValueError for a `fuel` below 1, before anything else,
    CompositionError when the tree cannot be typed at all, and
    FuelExhausted when a reading is charged more steps than `fuel`; an
    empty result means every candidate reading was rejected.
    """
    (_, readings), _ = _run(tree, lex, fuel)
    return readings


def felicity(tree: ParseTree, lex: Lexicon, fuel: int = 10000, *,
             _alts: list | None = None) -> Verdict:
    """Judge a tree: felicitous, infelicitous, a type error, or a resource
    limit when a reading is charged more steps than `fuel` allows.  A list
    given as `_alts` gets the readings' alternatives, for `_derivation`."""
    try:
        (alts, readings), st = _run(tree, lex, fuel)
    except FuelExhausted as err:
        return Verdict(RESOURCE_LIMIT, error=str(err))
    except KernelError as err:
        return Verdict(TYPE_ERROR, error=str(err))
    if _alts is not None:
        _alts += alts
    notes = ()
    if st.copred_nodes > 1:
        notes = ("rigidity applies within each conjunction node separately",)
    # readings vanish only at a conjunction node whose pairs are all
    # refused, and each refusal is logged
    return Verdict(FELICITOUS if readings else INFELICITOUS,
                   tuple(readings), tuple(st.rejections), notes)


def _derivation(alt: _Alt, path=(), lines=None) -> list:
    """`(path, kind, steps, normal form)` for each tree node of the
    reading `alt`, bottom-up: composition's own derivation of it.  The
    steps contracted at a node are its charge less its parts' charges,
    so they sum to `alt.steps`."""
    lines = [] if lines is None else lines
    shape, *parts = alt.made
    kind, *below = shape
    steps = alt.steps
    for at, part in zip(below, parts):
        steps -= part.steps
        _derivation(part, path + at, lines)
    lines.append((path, kind, steps, alt.nf))
    return lines
