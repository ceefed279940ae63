"""The logical signature and the view of normal terms as many-sorted
formulae.

The signature provides binary connectives over `t`, polymorphic
quantifiers, and a polymorphic choice operator.  A closed normal term of
type `t` built over it converts to a Formula; the converse direction
rebuilds a term, so eta-long formulae round-trip.
"""

from __future__ import annotations

from .kernel import (Abs, App, Arrow, Const, Context, Forall, KernelError,
                     PROP, SortRef, Term, TyApp, Type, TypeVar, Var,
                     alpha_equiv, free_vars, fresh_name, render_term,
                     record, render_type, subst_term, type_of)
from .reduction import find_redexes

AND_NAME = "&"
OR_NAME = "|"
IMPLIES_NAME = "=>"
EXISTS_NAME = "exists"
FORALL_NAME = "forall"
IOTA_NAME = "iota"

_CONNECTIVES = (AND_NAME, OR_NAME, IMPLIES_NAME)
_QUANTIFIERS = (EXISTS_NAME, FORALL_NAME)


class LogicError(KernelError):
    pass


# types are immutable, so each is built once and shared by every caller
_CONNECTIVE_TYPE = Arrow(PROP, Arrow(PROP, PROP))
_QUANTIFIER_TYPE = Forall("a", Arrow(Arrow(TypeVar("a"), PROP), PROP))
_CHOICE_TYPE = Forall("a", Arrow(Arrow(TypeVar("a"), PROP), TypeVar("a")))


def connective_type() -> Type:
    return _CONNECTIVE_TYPE


def quantifier_type() -> Type:
    return _QUANTIFIER_TYPE


def choice_type() -> Type:
    """The choice operator turns a predicate into one of its witnesses."""
    return _CHOICE_TYPE


def logical_constants() -> dict:
    conn = connective_type()
    quant = quantifier_type()
    return {
        AND_NAME: conn,
        OR_NAME: conn,
        IMPLIES_NAME: conn,
        EXISTS_NAME: quant,
        FORALL_NAME: quant,
        IOTA_NAME: choice_type(),
    }


def logical_signature(sorts) -> Context:
    """A context holding the six logical constants over the given sorts."""
    names = set(sorts.sorts if isinstance(sorts, Context) else sorts)
    if "t" not in names:
        raise LogicError("the proposition sort 't' must be declared")
    return Context(sorts=names, constants=logical_constants())


# ---------------------------------------------------------------------------
# formulae

@record
class ConstRef:
    name: str


@record
class VarRef:
    name: str


@record
class Description:
    """A choice-operator description: the `pred` such that iota[sort](pred)."""

    sort: "Type"
    pred: "Term"


@record
class Applied:
    fun: "Ref"
    args: tuple


@record
class TermRef:
    """Fallback for higher-order arguments with no first-order shape."""

    term: "Term"


Ref = ConstRef | VarRef | Description | Applied | TermRef


class _FormulaNode:
    def __str__(self):
        return render_formula(self)


@record
class Atom(_FormulaNode):
    pred: "Ref"
    args: tuple


@record
class And(_FormulaNode):
    left: "Formula"
    right: "Formula"


@record
class Or(_FormulaNode):
    left: "Formula"
    right: "Formula"


@record
class Implies(_FormulaNode):
    left: "Formula"
    right: "Formula"


@record
class Quant(_FormulaNode):
    kind: str  # "exists" | "forall"
    var: str
    sort: "Type"
    body: "Formula"


Formula = Atom | And | Or | Implies | Quant

_BINARY = {AND_NAME: And, OR_NAME: Or, IMPLIES_NAME: Implies}


# ---------------------------------------------------------------------------
# term -> formula

def to_formula(term) -> Formula:
    """Read a closed normal term of type `t` as a formula.

    A quantifier applied to a non-abstraction is eta-expanded on the fly;
    no eta step is ever applied to the term itself.
    """
    fv = free_vars(term)
    if fv:
        name = next(iter(fv))
        raise LogicError(f"term is open: free variable '{name}'")
    ty = type_of(term)
    if ty != PROP:
        raise LogicError(f"term has type {render_type(ty)}, expected t")
    if find_redexes(term):
        raise LogicError("term is not in normal form")
    return _formula(term)


def _spine(t):
    args = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    return t, list(reversed(args))


def _formula(t):
    match t:
        case App(App(Const(name, _), a), b) if name in _CONNECTIVES:
            return _BINARY[name](_formula(a), _formula(b))
        case App(TyApp(Const(name, _), sort), p) if name in _QUANTIFIERS:
            if isinstance(p, Abs):
                return Quant(name, p.var, sort, _formula(p.body))
            x = fresh_name("x", set(free_vars(p)))
            return Quant(name, x, sort, _formula(App(p, Var(x, sort))))
    head, args = _head(t)
    return Atom(head, tuple(_ref(a) for a in args))


def _head(t):
    """The head of `t`'s application spine as a reference, and the
    arguments it is applied to; an iota description takes the first
    argument as its predicate.  Any other head becomes a TermRef."""
    head, args = _spine(t)
    match head:
        case TyApp(Const(name, _), sort) if name == IOTA_NAME and args:
            return Description(sort, args[0]), args[1:]
        case Var() | Const():
            return _ref(head), args
    return TermRef(head), args


def _ref(t):
    match t:
        case Var(n, _):
            return VarRef(n)
        case Const(n, _):
            return ConstRef(n)
    head, args = _head(t)
    if isinstance(head, TermRef):
        return TermRef(t)
    return Applied(head, tuple(_ref(a) for a in args)) if args else head


# ---------------------------------------------------------------------------
# formula -> term

def formula_to_term(f, ctx: Context):
    """Rebuild a term from a formula; constants take their types from `ctx`."""
    return _to_term(f, ctx, {})


def _to_term(f, ctx, env):
    match f:
        case And(l, r):
            op = Const(AND_NAME, connective_type())
        case Or(l, r):
            op = Const(OR_NAME, connective_type())
        case Implies(l, r):
            op = Const(IMPLIES_NAME, connective_type())
        case Quant(kind, var, sort, body):
            inner = dict(env)
            inner[var] = sort
            pred = Abs(var, sort, _to_term(body, ctx, inner))
            return App(TyApp(Const(kind, quantifier_type()), sort), pred)
        case Atom(pred, args):
            t = _ref_term(pred, ctx, env)
            for a in args:
                t = App(t, _ref_term(a, ctx, env))
            return t
        case _:
            raise LogicError(f"not a formula: {f!r}")
    return App(App(op, _to_term(l, ctx, env)), _to_term(r, ctx, env))


def _ref_term(r, ctx, env):
    match r:
        case VarRef(n):
            if n not in env:
                raise LogicError(f"unbound variable '{n}' in formula")
            return Var(n, env[n])
        case ConstRef(n):
            if n not in ctx.constants:
                raise LogicError(f"unknown constant '#{n}' in formula")
            return Const(n, ctx.constants[n])
        case Description(sort, pred):
            return App(TyApp(Const(IOTA_NAME, choice_type()), sort), pred)
        case Applied(fun, args):
            t = _ref_term(fun, ctx, env)
            for a in args:
                t = App(t, _ref_term(a, ctx, env))
            return t
        case TermRef(t):
            return t
    raise LogicError(f"not a term reference: {r!r}")


# ---------------------------------------------------------------------------
# rendering

_PREC_QUANT, _PREC_IMPLIES, _PREC_OR, _PREC_AND = 0, 1, 2, 3

# per connective: its symbol, its own precedence, and the least precedence
# its left and right operands print without parentheses
_CONNECTIVE_PREC = {
    Implies: ("implies", _PREC_IMPLIES, _PREC_OR, _PREC_IMPLIES),
    Or: ("or", _PREC_OR, _PREC_OR, _PREC_AND),
    And: ("and", _PREC_AND, _PREC_AND, _PREC_AND + 1),
}

_SYMBOLS = {
    "ascii": {"and": "&", "or": "|", "implies": "=>", "exists": "exists ",
              "forall": "forall ", "iota": "iota", "style": "ascii"},
    "unicode": {"and": "∧", "or": "∨", "implies": "⇒", "exists": "∃",
                "forall": "∀", "iota": "ι", "style": "unicode"},
}


def render_formula(f, style: str = "ascii") -> str:
    """Pretty-print with minimal parentheses.

    Quantifiers bind weakest, then implication, disjunction, conjunction.
    A binder shadowing an enclosing binder prints under a fresh name, and
    its occurrences follow it, so every rendered binder has a distinct
    name in its scope, inside descriptions and embedded terms too.
    """
    if style not in _SYMBOLS:
        raise ValueError(f"unknown style {style!r}")
    return _render(f, _PREC_QUANT, _SYMBOLS[style], frozenset(), {})


def _names(x) -> set:
    """Every name in a formula or a reference: binders, variables,
    constants, and the free variables of embedded terms."""
    match x:
        case Quant(_, var, _, body):
            return {var} | _names(body)
        case And(l, r) | Or(l, r) | Implies(l, r):
            return _names(l) | _names(r)
        case Atom(head, args) | Applied(head, args):
            return _names(head).union(*map(_names, args))
        case VarRef(n) | ConstRef(n):
            return {n}
        case Description(_, t) | TermRef(t):
            return set(free_vars(t))
    return set()


def _bind(var, body, printed, names):
    """The name a binder of `var` over `body` prints with, and the printed
    names and the map (renamed bound variable to printed name) of its
    body.  A binder not in `printed` shadows nothing and no binder of that
    name was renamed; a renamed one gets a name fresh for `printed`, which
    holds every mapped-to name, and for the names in `body`."""
    if var not in printed:
        return var, printed | {var}, names
    new = fresh_name(var, printed | _names(body))
    return new, printed | {new}, names | {var: new}


def _rebind(t, names):
    """`t` with its free variables renamed as their binders print."""
    for x, ty in (free_vars(t).items() if names else ()):
        if x in names:
            t = subst_term(t, x, Var(names[x], ty))
    return t


def _render(f, prec, sym, printed, names):
    match f:
        case Quant(kind, var, sort, body):
            var, inner, inner_names = _bind(var, body, printed, names)
            s = (f"{sym[kind]}{var}:{_sort_text(sort, sym['style'])}. "
                 f"{_render(body, _PREC_QUANT, sym, inner, inner_names)}")
            return f"({s})" if prec > _PREC_QUANT else s
        case And(l, r) | Or(l, r) | Implies(l, r):
            op, own, left, right = _CONNECTIVE_PREC[type(f)]
            s = (f"{_render(l, left, sym, printed, names)} {sym[op]} "
                 f"{_render(r, right, sym, printed, names)}")
            return f"({s})" if prec > own else s
        case Atom(pred, args):
            head = _render_ref(pred, sym, printed, names)
            if not args:
                return head
            inner = ", ".join(_render_ref(a, sym, printed, names) for a in args)
            return f"{head}({inner})"
    raise LogicError(f"not a formula: {f!r}")


def _sort_text(sort, style):
    s = render_type(sort, style)
    if not isinstance(sort, (SortRef, TypeVar)):
        s = f"({s})"
    return s


def _render_ref(r, sym, printed, names):
    match r:
        case VarRef(n):
            return names.get(n, n)
        case ConstRef(n):
            return n
        case Description(sort, pred):
            pred = _pred_text(_rebind(pred, names), sym, printed)
            return f"{sym['iota']}[{render_type(sort, sym['style'])}]({pred})"
        case Applied(fun, args):
            inner = ", ".join(_render_ref(a, sym, printed, names) for a in args)
            return f"{_render_ref(fun, sym, printed, names)}({inner})"
        case TermRef(t):
            return render_term(_rebind(t, names), sym["style"])
    raise LogicError(f"not a term reference: {r!r}")


def _eta_head(pred) -> str | None:
    """Name of the predicate when it is one, or an eta-expansion of one."""
    match pred:
        case Const(n, _) | Var(n, _):
            return n
        case Abs(x, _, App(Const(n, _) as h, Var(y, _))) if x == y:
            return n
        case Abs(x, _, App(Var(n, _), Var(y, _))) if x == y and n != x:
            return n
    return None


def _pred_text(pred, sym, printed):
    """A description's predicate, whose free variables already carry
    their printed names."""
    name = _eta_head(pred)
    if name is not None:
        return name
    if isinstance(pred, Abs):
        try:
            body = _formula(pred.body)
        except KernelError:
            return render_term(pred, sym["style"])
        var, inner, names = _bind(pred.var, body, printed, {})
        return f"{var}. {_render(body, _PREC_QUANT, sym, inner, names)}"
    return render_term(pred, sym["style"])
