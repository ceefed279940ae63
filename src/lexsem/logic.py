"""The logical signature and the view of normal terms as many-sorted
formulae.

The signature provides binary connectives over `t`, polymorphic
quantifiers, and a polymorphic choice operator.  A closed normal term of
type `t` built over it converts to a Formula; the converse direction
rebuilds a term, so eta-long formulae round-trip.
"""

from __future__ import annotations

from .kernel import (Abs, App, Arrow, Const, Context, Forall, KernelError,
                     PROP, SortRef, Term, TyApp, Type, TypeVar, Var, _rt,
                     _rty, _subst, _symbols, free_vars, fresh_name, record,
                     render_type, type_of)
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


_LOGICAL_CONSTANTS = {
    AND_NAME: _CONNECTIVE_TYPE,
    OR_NAME: _CONNECTIVE_TYPE,
    IMPLIES_NAME: _CONNECTIVE_TYPE,
    EXISTS_NAME: _QUANTIFIER_TYPE,
    FORALL_NAME: _QUANTIFIER_TYPE,
    IOTA_NAME: _CHOICE_TYPE,
}
# and each one's term, likewise built once
_LOGICAL_TERMS = {name: Const(name, ty)
                  for name, ty in _LOGICAL_CONSTANTS.items()}


def logical_constants() -> dict:
    """The six logical constants and their types, in a new dict."""
    return dict(_LOGICAL_CONSTANTS)


def logical_signature(sorts) -> Context:
    """A context holding the six logical constants over the given sorts."""
    names = set(sorts.sorts if isinstance(sorts, Context) else sorts)
    if "t" not in names:
        raise LogicError("the proposition sort 't' must be declared")
    return Context(sorts=names, constants=_LOGICAL_CONSTANTS)


# ---------------------------------------------------------------------------
# formulae

class _Node:
    _ascii = _unicode = None  # top-scope text per style, kept by `_render`


class ConstRef(_Node, metaclass=record):
    name: str


class VarRef(_Node, metaclass=record):
    name: str


class Description(_Node, metaclass=record):
    """A choice-operator description: the `pred` such that iota[sort](pred)."""

    sort: "Type"
    pred: "Term"


class Applied(_Node, metaclass=record):
    fun: "Ref"
    args: tuple


class TermRef(_Node, metaclass=record):
    """Fallback for higher-order arguments with no first-order shape."""

    term: "Term"


Ref = ConstRef | VarRef | Description | Applied | TermRef


class _FormulaNode(_Node):
    def __str__(self):
        return render_formula(self)


class Atom(_FormulaNode, metaclass=record):
    pred: "Ref"
    args: tuple


class And(_FormulaNode, metaclass=record):
    left: "Formula"
    right: "Formula"


class Or(_FormulaNode, metaclass=record):
    left: "Formula"
    right: "Formula"


class Implies(_FormulaNode, metaclass=record):
    left: "Formula"
    right: "Formula"


class Quant(_FormulaNode, metaclass=record):
    kind: str  # "exists" | "forall"
    var: str
    sort: "Type"
    body: "Formula"


Formula = Atom | And | Or | Implies | Quant

_BINARY = {AND_NAME: And, OR_NAME: Or, IMPLIES_NAME: Implies}
_CONNECTIVE_TERMS = {cls: _LOGICAL_TERMS[name]
                     for name, cls in _BINARY.items()}


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
    """The formula of `t`.  It depends on the term node alone, so the node
    keeps it (not as a field) and a shared part is read once."""
    f = t._formula
    if f is not None:
        return f
    # `op a b` with a connective `op`, or `q{sort} p` with a quantifier `q`
    fun = t.fun if isinstance(t, App) else None
    op = fun.fun if isinstance(fun, (App, TyApp)) else None
    name = op.name if isinstance(op, Const) else None
    if name in _CONNECTIVES and isinstance(fun, App):
        f = _BINARY[name](_formula(fun.arg), _formula(t.arg))
    elif name in _QUANTIFIERS and isinstance(fun, TyApp):
        p, sort = t.arg, fun.arg_type
        if isinstance(p, Abs):
            f = Quant(name, p.var, sort, _formula(p.body))
        else:
            x = fresh_name("x", set(free_vars(p)))
            f = Quant(name, x, sort, _formula(App(p, Var(x, sort))))
    else:
        head, args = _head(t)
        f = Atom(head, tuple(_ref(a) for a in args))
    object.__setattr__(t, "_formula", f)
    return f


def _head(t):
    """The head of `t`'s application spine as a reference, and the
    arguments it is applied to; an iota description takes the first
    argument as its predicate.  Any other head becomes a TermRef."""
    head, args = _spine(t)
    if (args and isinstance(head, TyApp) and isinstance(head.fun, Const)
            and head.fun.name == IOTA_NAME):
        return Description(head.arg_type, args[0]), args[1:]
    if isinstance(head, (Var, Const)):
        return _ref(head), args
    return TermRef(head), args


def _ref(t):
    """The reference of `t`.  It depends on the term node alone, so the
    node keeps it, as `_formula` does, and a shared argument is read
    once."""
    r = t._ref
    if r is not None:
        return r
    match t:
        case Var():
            r = VarRef(t.name)
        case Const():
            r = ConstRef(t.name)
        case _:
            head, args = _head(t)
            if isinstance(head, TermRef):
                r = TermRef(t)
            else:
                r = Applied(head, tuple(map(_ref, args))) if args else head
    object.__setattr__(t, "_ref", r)
    return r


# ---------------------------------------------------------------------------
# formula -> term

def formula_to_term(f, ctx: Context):
    """Rebuild a term from a formula; constants take their types from `ctx`."""
    return _to_term(f, ctx, {})


def _misplaced(x, ref):
    """The error for `x` where a reference (`ref`) or a formula belongs.
    A walker matches a node only where its kind belongs, so a node out of
    place matches no case and ends here."""
    return LogicError(f"not a {'term reference' if ref else 'formula'}: {x!r}")


def _to_term(x, ctx, env, ref=False):
    """The term of `x`, a reference where `ref`, else a formula."""
    match x if isinstance(x, Ref if ref else Formula) else None:
        case And() | Or() | Implies():
            return App(App(_CONNECTIVE_TERMS[type(x)],
                           _to_term(x.left, ctx, env)),
                       _to_term(x.right, ctx, env))
        case Quant() if x.kind in _QUANTIFIERS:
            inner = dict(env)
            inner[x.var] = x.sort
            pred = Abs(x.var, x.sort, _to_term(x.body, ctx, inner))
            return App(TyApp(_LOGICAL_TERMS[x.kind], x.sort), pred)
        case Atom() | Applied():
            t = _to_term(x.fun if ref else x.pred, ctx, env, True)
            for a in x.args:
                t = App(t, _to_term(a, ctx, env, True))
            return t
        case VarRef():
            if x.name not in env:
                raise LogicError(f"unbound variable '{x.name}' in formula")
            return Var(x.name, env[x.name])
        case ConstRef():
            if x.name not in ctx.constants:
                raise LogicError(f"unknown constant '#{x.name}' in formula")
            return Const(x.name, ctx.constants[x.name])
        case Description():
            return App(TyApp(_LOGICAL_TERMS[IOTA_NAME], x.sort), x.pred)
        case TermRef():
            return x.term
    raise _misplaced(x, ref)


# ---------------------------------------------------------------------------
# rendering

_PREC_QUANT, _PREC_IMPLIES, _PREC_OR, _PREC_AND = 0, 1, 2, 3

# per connective: its symbol and the least precedence its left and right
# operands print without parentheses
_CONNECTIVE_PREC = {
    Implies: ("implies", _PREC_OR, _PREC_IMPLIES),
    Or: ("or", _PREC_OR, _PREC_AND),
    And: ("and", _PREC_AND, _PREC_AND + 1),
}

# the precedence of a node's own text; an atom never takes parentheses
_OWN_PREC = {Quant: _PREC_QUANT, Implies: _PREC_IMPLIES, Or: _PREC_OR,
             And: _PREC_AND}


def render_formula(f, style: str = "ascii") -> str:
    """Pretty-print with minimal parentheses.

    Quantifiers bind weakest, then implication, disjunction, conjunction.
    A binder shadowing an enclosing binder prints under a fresh name, and
    its occurrences follow it, so every rendered binder has a distinct
    name in its scope, inside descriptions and embedded terms too.
    """
    return _render(f, _PREC_QUANT, _symbols(style), frozenset(), {})


def _names(x) -> set:
    """Every name in a formula or a reference: binders, variables,
    constants, and the free variables of embedded terms."""
    match x:
        case Quant():
            return {x.var} | _names(x.body)
        case And() | Or() | Implies():
            return _names(x.left) | _names(x.right)
        case Atom() | Applied():
            head = x.pred if isinstance(x, Atom) else x.fun
            return _names(head).union(*map(_names, x.args))
        case VarRef() | ConstRef():
            return {x.name}
        case Description():
            return set(free_vars(x.pred))
        case TermRef():
            return set(free_vars(x.term))
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
            t = _subst(t, x, Var(names[x], ty), {names[x]})
    return t


def _render(x, prec, sym, printed, names):
    """`x`'s text: with `prec` None a reference's, else a formula's, in
    parentheses if its precedence is below `prec`.  With no binder in
    scope the text depends on `x` and the style alone, so it is kept on
    the node (not as a field) and a shared node is printed once; under a
    binder, where a shadowed name prints fresh, it is not.  A node out of
    place is refused before its kept text is read: a term keeps its own."""
    ref = prec is None
    node = x if isinstance(x, Ref if ref else Formula) else None
    s = None if printed else getattr(node, sym["kept"], None)
    if s is None:
        match node:
            case VarRef():
                return names.get(x.name, x.name)
            case ConstRef():
                return x.name
            case Quant() if x.kind in _QUANTIFIERS:
                var, inner, inner_names = _bind(x.var, x.body, printed, names)
                body = _render(x.body, _PREC_QUANT, sym, inner, inner_names)
                s = f"{sym[x.kind]}{var}:{_sort_text(x.sort, sym)}. {body}"
            case And() | Or() | Implies():
                op, left, right = _CONNECTIVE_PREC[type(x)]
                s = (f"{_render(x.left, left, sym, printed, names)} {sym[op]} "
                     f"{_render(x.right, right, sym, printed, names)}")
            case Atom() | Applied():
                # an atom with no argument prints as its bare predicate
                s = _render(x.fun if ref else x.pred, None, sym, printed, names)
                if x.args or ref:
                    inner = ", ".join(_render(a, None, sym, printed, names)
                                      for a in x.args)
                    s = f"{s}({inner})"
            case Description():
                pred = _pred_text(_rebind(x.pred, names), sym, printed)
                s = f"{sym['iota']}[{_rty(x.sort, sym)}]({pred})"
            case TermRef():
                s = _rt(_rebind(x.term, names), sym)
            case _:
                raise _misplaced(x, ref)
        if not printed:
            object.__setattr__(x, sym["kept"], s)
    return f"({s})" if not ref and prec > _OWN_PREC.get(type(x), prec) else s


def _sort_text(sort, sym):
    s = _rty(sort, sym)
    if not isinstance(sort, (SortRef, TypeVar)):
        s = f"({s})"
    return s


def _eta_head(pred) -> str | None:
    """Name of the predicate when it is one, or an eta-expansion of one,
    `lam x. h x` with `h` a constant or a variable other than `x`."""
    if isinstance(pred, (Const, Var)):
        return pred.name
    body = pred.body if isinstance(pred, Abs) else None
    if (isinstance(body, App) and isinstance(body.arg, Var)
            and body.arg.name == pred.var):
        h = body.fun
        if isinstance(h, Const) or isinstance(h, Var) and h.name != pred.var:
            return h.name
    return None


def _pred_text(pred, sym, printed):
    """A description's predicate, whose free variables already carry
    their printed names: a name, a bound formula, or else a reference."""
    name = _eta_head(pred)
    if name is not None:
        return name
    if isinstance(pred, Abs):
        body = _formula(pred.body)
        var, inner, names = _bind(pred.var, body, printed, {})
        return f"{var}. {_render(body, _PREC_QUANT, sym, inner, names)}"
    return _render(_ref(pred), None, sym, printed, {})
