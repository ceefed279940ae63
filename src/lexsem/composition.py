"""Composition of binary parse trees into logical readings.

Trees are written as s-expressions over lexicon words plus two builtin
markers: `THE`, which turns a predicate noun into a definite referent,
and `AND`, which conjoins two predicates over one shared argument.  An
application may route its argument through any of the argument word's
coercion morphisms; a shared argument takes one morphism per conjunct,
and a rigid morphism tolerates no distinct partner at the same node.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

from .kernel import (Abs, App, Arrow, Const, Forall, KernelError, PROP,
                     ParseError, SortRef, Term, TyAbs, TyApp, Type, TypeVar,
                     Var, _apply, alpha_equiv, alpha_key, free_type_vars,
                     fresh_name, record, render_type, subst_type, type_of)
from .lexicon import (LexEntry, Lexicon, LexiconError, Morphism, RIGID,
                      _iota, candidates, poly_and)
from .logic import IOTA_NAME, Formula, _formula, choice_type
from .reduction import FuelExhausted, _Meter

FELICITOUS = "felicitous"
INFELICITOUS = "infelicitous"
TYPE_ERROR = "typeError"
RESOURCE_LIMIT = "resourceLimit"

THE_MARKER = "THE"
AND_MARKER = "AND"


class CompositionError(KernelError):
    def __init__(self, message, path=()):
        at = ".".join(str(c) for c in path) or "ε"
        super().__init__(f"at {at}: {message}")
        self.path = tuple(path)


# ---------------------------------------------------------------------------
# parse trees

@record
class Leaf:
    word: str

    def __str__(self):
        return self.word


@record
class Node:
    fun: "ParseTree"
    arg: "ParseTree"

    def __str__(self):
        return f"({self.fun} {self.arg})"


ParseTree = Leaf | Node


def parse_tree(text: str) -> ParseTree:
    """Read an s-expression; longer lists associate to the left."""
    def fail(msg, at):
        raise ParseError(msg, 1, at + 1)

    # one [position, items folded so far] per open '(': no recursion, so
    # the nesting depth is bounded by memory alone
    stack = []
    tree = None
    # a token is a parenthesis or a run of anything else up to whitespace,
    # where `\s` matches exactly the characters `str.isspace` accepts
    for match in re.finditer(r"[()]|[^\s()]+", text):
        tok, at = match.group(), match.start()
        if tree is not None:
            fail("trailing input after tree", at)
        if tok == "(":
            stack.append([at, None])
            continue
        if tok == ")":
            if not stack:
                fail("unexpected ')'", at)
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
        fail("missing ')'", len(text))
    if tree is None:
        fail("unexpected end of tree", len(text))
    return tree


# ---------------------------------------------------------------------------
# results

@record
class Reading:
    term: "Term"
    formula: Formula | None
    used_morphisms: tuple = ()
    presuppositions: tuple = ()
    source: Term | None = None


@record
class Rejection:
    """A morphism assignment that was tried and refused, with the reason."""

    assignment: tuple
    reason: str

    def __str__(self):
        return self.reason


@record
class Verdict:
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


@record
class _Alt:
    """One reading of a node: its source term, that term's normal form,
    and the reduction steps charged to it, which are the steps of all its
    parts plus the contractions made where they meet.  Past the fuel the
    normal form is not built, and `nf` is None."""

    term: "Term"
    nf: Term | None
    steps: int
    morphs: tuple = ()
    presups: tuple = ()


@record
class _Node:
    """A tree node with its readings so far.  A coercion only reroutes an
    argument inside one application, so every alternative has the
    node's type; they differ in the morphisms chosen below the node and
    in their presuppositions.  `entry` is a leaf word's, kept by `THE`."""

    type: "Type"
    alts: list
    entry: LexEntry | None = None


@record
class _Marker:
    """`THE` or `AND`, with the conjuncts an `AND` has taken so far: each
    a _Node or a complete two-conjunct _Marker."""

    word: str
    conjuncts: tuple = ()


# ---------------------------------------------------------------------------
# polymorphic application

def _unify(pattern, concrete, free: set, bind: dict) -> bool:
    if isinstance(pattern, TypeVar) and pattern.name in free:
        if pattern.name in bind:
            return alpha_equiv(bind[pattern.name], concrete)
        bind[pattern.name] = concrete
        return True
    if type(pattern) is not type(concrete):
        return False
    match pattern, concrete:
        case TypeVar() | SortRef(), _:
            return pattern == concrete
        case Arrow(d1, c1), Arrow(d2, c2):
            return _unify(d1, d2, free, bind) and _unify(c1, c2, free, bind)
        case Forall(v1, b1), Forall(v2, b2):
            avoid = free | free_type_vars(b1) | free_type_vars(b2)
            joint = fresh_name("z", avoid)
            return _unify(subst_type(b1, v1, TypeVar(joint)),
                          subst_type(b2, v2, TypeVar(joint)),
                          free, bind)
    return False


def _match_forall(fun_type, arg_type):
    """Instantiations making a quantified function accept the argument.

    Peels the leading quantifiers, unifies the domain against the
    argument type, and returns the instantiation list, or None.  Every
    peeled variable must be determined by the match.
    """
    peeled = []
    core = fun_type
    while isinstance(core, Forall):
        peeled.append(core.var)
        core = core.body
    if not isinstance(core, Arrow):
        return None
    bind: dict = {}
    if not _unify(core.domain, arg_type, set(peeled), bind):
        return None
    if set(bind) != set(peeled):
        return None
    return [bind[v] for v in peeled]


def _applying(fty, aty, arg_entry, path=()):
    """How a functor of type `fty` takes an argument of type `aty`.

    Returns `(type_args, morphisms, result_type)`: the types that
    instantiate a quantified functor, and the morphisms the argument may
    route through, None standing for a direct application.  No morphism
    means nothing fits.  The result type is taken with `type_of`'s own
    instantiation steps, so it is `==` to the applied term's type.
    """
    if isinstance(fty, Forall):
        inst = _match_forall(fty, aty)
        if inst is None:
            return (), [], None
        for ty in inst:
            fty = subst_type(fty.body, fty.var, ty)
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


def _applied_nf(lex, entry, fun_nf, type_args, arg_nf, m, step):
    """The normal form of `_applied` on normal parts, `m` being a
    morphism of the argument's `entry`: only the redexes the application
    makes are contracted."""
    if m is not None:
        arg_nf = _apply(lex._normal(entry, step, m)[0], arg_nf, step)
    for ty in type_args:
        fun_nf = _apply(fun_nf, ty, step)
    return _apply(fun_nf, arg_nf, step)


def apply_with_coercion(fun_term, arg_term, arg_entry=None):
    """All ways to apply a functor to an argument.

    Returns `(term, morphism)` pairs: a direct application carries no
    morphism; on a type mismatch each of the argument entry's fitting
    morphisms yields one candidate.  An empty list means nothing fits.
    Coercion happens on the argument side only; a quantified functor is
    instantiated to match and admits no coercion.
    """
    inst, ms, _ = _applying(type_of(fun_term), type_of(arg_term), arg_entry)
    return [(_applied(fun_term, inst, arg_term, m), m) for m in ms]


# ---------------------------------------------------------------------------
# node semantics

def _reading(st: _State, spent, build, term, morphs=(), presups=()):
    """The alternative with source `term` whose parts took `spent` steps:
    `build(step)` makes its normal form, `step()` counting each
    contraction.  Once the steps pass the fuel, it and every alternative
    made from it keep no normal form; `_finish` then reports the tree as
    out of fuel, if that alternative reaches the root at all."""
    meter = _Meter(st.fuel)
    try:
        meter(spent)
        return _Alt(term, build(meter), meter.spent, morphs, presups)
    except FuelExhausted:
        return _Alt(term, None, meter.spent, morphs, presups)


def _leaf(leaf: Leaf, path, st: _State):
    if leaf.word in (THE_MARKER, AND_MARKER):
        return _Marker(leaf.word)
    try:
        entry = st.lex.entry(leaf.word)
    except LexiconError as err:
        raise CompositionError(str(err), path) from err
    meter = _Meter(st.fuel)
    try:
        nf, ty = st.lex._normal(entry, meter)
    except FuelExhausted:
        nf, ty = None, type_of(entry.principal)
    return _Node(ty, [_Alt(entry.principal, nf, meter.spent)], entry)


def _apply_node(fun: _Node, arg: _Node, path, st: _State):
    inst, ms, ty = _applying(fun.type, arg.type, arg.entry, path)
    if not ms:
        raise CompositionError(f"cannot apply {render_type(fun.type)}"
                               f" to {render_type(arg.type)}", path)
    alts = []
    for f, a in product(fun.alts, arg.alts):
        for m in ms:
            morphs = f.morphs + a.morphs
            if m is not None:
                morphs += ((arg.entry.word, path + (1,), m.name),)
            alts.append(_reading(
                st, f.steps + a.steps,
                lambda step: _applied_nf(st.lex, arg.entry, f.nf, inst, a.nf,
                                         m, step),
                _applied(f.term, inst, a.term, m), morphs,
                f.presups + a.presups))
    return _Node(ty, alts)


def _is_predicate(ty) -> bool:
    return isinstance(ty, Arrow) and ty.codomain == PROP


def _the_node(noun: _Node, path, st: _State):
    if not _is_predicate(noun.type):
        raise CompositionError(f"{THE_MARKER} needs a predicate,"
                               f" got {render_type(noun.type)}", path)
    sort = noun.type.domain
    choice = TyApp(Const(IOTA_NAME, choice_type()), sort)
    alts = []
    for alt in noun.alts:
        term = App(choice, alt.term)
        # the claim is charged its noun's steps and its own, apart from
        # the reading; past the fuel it is held back like a reading, with
        # no normal form and the steps it was charged
        meter = _Meter(st.fuel)
        try:
            meter(alt.steps)
            nf, claim = _iota(sort, alt.nf, meter)
        except FuelExhausted:
            alts.append(_Alt(term, None, meter.spent, alt.morphs, alt.presups))
            continue
        alts.append(_Alt(term, nf, alt.steps, alt.morphs,
                         alt.presups + (_formula(claim),)))
    return _Node(sort, alts, noun.entry)


def _pair_ok(f: Morphism, g: Morphism) -> bool:
    if f.name == g.name:
        return True
    return f.rigidity != RIGID and g.rigidity != RIGID


def _rejected(f: Morphism, g: Morphism) -> Rejection:
    rigid, other = (f, g) if f.rigidity == RIGID else (g, f)
    return Rejection((f.name, g.name),
                     f"rigid {rigid.name} excludes {other.name}")


def _copred_pairs(entry, xi, alpha, beta, rejections: list):
    """Admissible morphism pairs routing one referent to two sorts."""
    def side(target):
        try:
            ms = candidates(entry, xi, target)
        except LexiconError as err:
            rejections.append(Rejection((), str(err)))
            return []
        if not ms:
            rejections.append(Rejection(
                (), f"'{entry.word}' has no morphism from {render_type(xi)}"
                    f" to {render_type(target)}"))
        return ms
    fs = side(alpha)
    gs = side(beta)
    out = []
    for f, g in product(fs, gs):
        if _pair_ok(f, g):
            out.append((f, g))
        else:
            rejections.append(_rejected(f, g))
    return out


def _copred_term(left, right, shared, xi, alpha, beta, f, g):
    t = TyApp(TyApp(poly_and(), alpha), beta)
    t = App(App(t, left), right)
    t = App(TyApp(t, xi), shared)
    return App(App(t, f.term), g.term)


@lru_cache(maxsize=256)
def _poly_and_at(alpha, beta, xi):
    """`poly_and` instantiated at α, β and ξ, as its reductions in
    `_copred_term` would instantiate it: the names its term binders bind,
    in order, the body below all its binders, and the number of binders,
    each of which costs one step to contract.  Built once per triple."""
    types = iter((alpha, beta, xi))
    names, steps, t = [], 0, poly_and()
    while isinstance(t, (Abs, TyAbs)):
        if isinstance(t, TyAbs):
            t = subst_type(t.body, t.var, next(types))
        else:
            names.append(t.var)
            t = t.body
        steps += 1
    return tuple(names), t, steps


def _plug(t, env, step):
    """The normal form of `t`, a normal term of variables, constants and
    applications only (the body of `poly_and`), with each variable named
    in `env` replaced by its normal value."""
    match t:
        case Var(n, _):
            return env.get(n, t)
        case App(f, a):
            return _apply(_plug(f, env, step), _plug(a, env, step), step)
    return t


def _nested(conj: _Marker, arg: _Node, path, arg_path, st: _State):
    """A nested conjunction, resolved at the shared referent type: a
    predicate over that type with its own morphism choices made.  The
    bound `y` cannot capture a constant: they live in disjoint
    namespaces."""
    xi = arg.type
    y = Var("y", xi)
    shared = _Node(xi, [_Alt(y, y, 0)], arg.entry)
    inner = _copred_node(conj, shared, path, arg_path, st)
    return _Node(Arrow(xi, PROP),
                 [_Alt(Abs("y", xi, a.term),
                       None if a.nf is None else Abs("y", xi, a.nf),
                       a.steps, a.morphs, a.presups) for a in inner.alts])


def _copred_node(fun: _Marker, arg: _Node, path, arg_path, st: _State):
    st.copred_nodes += 1
    if arg.entry is None:
        raise CompositionError(
            "a shared argument must carry a lexical entry", path)
    left, right = (_nested(c, arg, path, arg_path, st)
                   if isinstance(c, _Marker) else c for c in fun.conjuncts)
    for side in (left, right):
        if not _is_predicate(side.type):
            raise CompositionError(f"a conjunct must be a one-place predicate,"
                                   f" got {render_type(side.type)}", path)
    xi, alpha, beta = arg.type, left.type.domain, right.type.domain
    # a pair is only tried when each conjunct has a reading to pair
    pairs = (_copred_pairs(arg.entry, xi, alpha, beta, st.rejections)
             if left.alts and right.alts else [])
    names, body, own = _poly_and_at(alpha, beta, xi)
    alts = []
    for a, l, r in product(arg.alts, left.alts, right.alts):
        for f, g in pairs:
            term = _copred_term(l.term, r.term, a.term, xi, alpha, beta, f, g)
            recs = (l.morphs + r.morphs + a.morphs
                    + ((arg.entry.word, arg_path, f.name),
                       (arg.entry.word, arg_path, g.name)))

            def build(step):
                step(own)
                values = (l.nf, r.nf, a.nf,
                          st.lex._normal(arg.entry, step, f)[0],
                          st.lex._normal(arg.entry, step, g)[0])
                return _plug(body, dict(zip(names, values)), step)

            alts.append(_reading(st, l.steps + r.steps + a.steps, build,
                                 term, recs,
                                 l.presups + r.presups + a.presups))
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
    return _copred_node(lv, rv, path, path + (1,), st)


def _finish(node: _Node, st: _State):
    # terms built from checked parts only: a reading is closed, normal and
    # of the root's type, so a root of type t reads as a formula with no
    # check left to make
    alts = node.alts
    for alt in alts:
        _Meter(st.fuel)(alt.steps)    # raises for a reading out of fuel
    if len(alts) > 1:
        # keep the first reading of each normal form, up to α-equivalence
        first = {}
        for alt in alts:
            first.setdefault(alpha_key(alt.nf), alt)
        alts = first.values()
    return [Reading(alt.nf, _formula(alt.nf) if node.type == PROP else None,
                    alt.morphs, alt.presups, alt.term) for alt in alts]


def _run(tree, lex, fuel):
    st = _State(lex, fuel)
    value = _node(tree, (), st)
    if isinstance(value, _Marker):
        raise CompositionError("the tree is an unapplied marker")
    return _finish(value, st), st


def compose(tree: ParseTree, lex: Lexicon, fuel: int = 10000):
    """All readings of a tree, deduplicated up to alpha-equivalence.

    Raises CompositionError when the tree cannot be typed at all, and
    FuelExhausted when a reading is charged more steps than `fuel`; an
    empty result means every candidate reading was rejected.
    """
    readings, _ = _run(tree, lex, fuel)
    return readings


def felicity(tree: ParseTree, lex: Lexicon, fuel: int = 10000) -> Verdict:
    """Judge a tree: felicitous, infelicitous, a type error, or a resource
    limit when a reading is charged more steps than `fuel` allows."""
    try:
        readings, st = _run(tree, lex, fuel)
    except FuelExhausted as err:
        return Verdict(RESOURCE_LIMIT, error=str(err))
    except KernelError as err:
        return Verdict(TYPE_ERROR, error=str(err))
    notes = ()
    if st.copred_nodes > 1:
        notes = ("rigidity applies within each conjunction node separately",)
    if readings:
        return Verdict(FELICITOUS, tuple(readings),
                       tuple(st.rejections), notes)
    if st.rejections:
        return Verdict(INFELICITOUS, (), tuple(st.rejections), notes)
    return Verdict(TYPE_ERROR, (), (), notes, error="no readings")
