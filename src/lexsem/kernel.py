"""Core calculus: many-sorted types, Church-style second-order terms,
typing, substitution and alpha-equivalence.

Concrete ASCII syntax (also produced by the ``ascii`` renderers, so terms
and types round-trip through the parsers):

    types   T ::= sort | 'a | T -> T          arrows associate right
                | Pi 'a. T                    binds as far right as possible
    terms   u ::= x | #c | u u                application associates left
                | u{T}                        type application
                | lam x:T. u | Lam 'a. u

Every binder and every constant carries its type, so a term determines its
type without inference.  All values are immutable and every function here
is pure.

Sharing and kept data.  The readings of one tree may share subterm
objects: two readings of one conjunction can hold the very same conjunct
term, and their formulae the very same conjunct formula, and every term
that composition, `iota` or `formula_to_term` builds holds the one `Const`
that `logic` builds for each logical constant.  Records are immutable, so
this is not observable through `==`, `hash` or `repr`; only `is`, `id`
and the time a walk takes can tell.  `free_vars` walks each application
once per set of bound names, not once per path to it.

A node keeps what it alone determines, outside its fields, the first
time it is asked for: a type node its `alpha_key` once keyed outside
every type binder; a term node its `alpha_key` once keyed outside every
binder, its text per style once printed by `render_term`, its formula
once read by `to_formula` or composition, its reference once read as an
argument of a formula's atom; a formula node, and a reference built from
more than one name, its text per style once printed at top scope by
`render_formula`.  Formula and reference nodes keep that text alike, and
one `logic` walker prints both: it reads a node's kept text only where
the node's kind belongs, so `render_formula` of a printed term or a
printed reference still raises `LogicError`, as does a formula printed
where a reference belongs.  So a part shared by several readings, or by
the steps of a trace, is walked once per question.  Each kept name is a
class default None on the node's base (`_TypeNode`, `_TermNode`,
`logic._Node`), and a node that keeps a value holds it in its instance
dict, written with `object.__setattr__`; its fields are in slots.

Substitution keeps that sharing: `subst_term`, `subst_type` and every
β or type-β step return a node none of whose children changed as
it is, so a step's result holds the parts of the redex it left alone,
with what they keep.  `==`, `hash`, `repr`, matching and read-only
assignment ignore what is kept, nodes that are merely equal share none
of it, and a copy keeps none of it.
"""

from __future__ import annotations

import re
from operator import attrgetter


class KernelError(Exception):
    """Base class for errors raised by the calculus."""


class ParseError(KernelError):
    def __init__(self, message, line=None, col=None):
        super().__init__(message if line is None
                         else f"{message} (line {line}, column {col})")
        self.message, self.line, self.col = message, line, col


class TypingError(KernelError):
    """A term violates the typing rules."""


# ---------------------------------------------------------------------------
# records

def record(cls):
    """Make `cls` an immutable record of its annotated fields, in order;
    a class attribute named like a trailing field is its default.
    Records are built by position or keyword, equal only to records of
    their own class with equal fields, hashed on their fields, shown as
    `Name(field=value, ...)`, matched by position, and read-only.  They
    survive `copy`, `deepcopy` and `pickle`, rebuilt from their fields,
    and take weak references.

    The class is made anew, with `__slots__` that hold its fields, so
    `vars()` of a record shows none.  Only the constructor is compiled
    per class, and it writes each field through its slot's descriptor,
    since an `object.__setattr__` per field would slow down every term
    built; `==`, `hash`, `repr` and `__reduce__` are shared, and read the
    fields through the class's `_fields` or `__match_args__`.  A class
    attribute that is None and no field names kept data: a node writes
    its own value with `object.__setattr__` into its instance dict, and
    reads the class default until then.  The node bases of `kernel` and
    `logic` give their records that dict and weak references; a record
    whose base is `object` gets a weak reference slot, and a dict only
    if it keeps data (`lexicon.LexEntry`)."""
    names = tuple(cls.__annotations__)
    ns = {k: v for k, v in vars(cls).items()
          if k not in ("__dict__", "__weakref__")}
    defaults = tuple(ns.pop(n) for n in names if n in ns) or None
    slots = names
    if cls.__base__ is object:
        slots += ("__weakref__",)
        if any(v is None for k, v in ns.items() if not k.startswith("__")):
            slots += ("__dict__",)
    # one field is read bare, several as a tuple: both compare by value,
    # and a tuple short-cuts on identical members
    ns.update(__slots__=slots, _fields=attrgetter(*names),
              __eq__=_eq, __hash__=_hash, __repr__=_repr, __reduce__=_reduce,
              __match_args__=names, __setattr__=_read_only,
              __delattr__=_read_only)
    cls = type(cls)(cls.__name__, cls.__bases__, ns)
    init = {f"_s_{n}": getattr(cls, n).__set__ for n in names}
    exec(f"def __init__(self, {', '.join(names)}):\n"
         + "".join(f"    _s_{n}(self, {n})\n" for n in names), init)
    init["__init__"].__defaults__ = defaults
    cls.__init__ = init["__init__"]
    return cls


def _eq(self, other):
    cls = self.__class__
    if other.__class__ is cls:
        fields = cls._fields
        return fields(self) == fields(other)
    return NotImplemented


def _hash(self):
    return hash(self.__class__._fields(self))


def _repr(self):
    cls = self.__class__
    shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in cls.__match_args__)
    return f"{cls.__qualname__}({shown})"


def _reduce(self):
    # kept data is left behind: a copy builds its own again
    cls = self.__class__
    return cls, tuple(getattr(self, n) for n in cls.__match_args__)


def _read_only(self, name, value=None):
    raise AttributeError(f"{self.__class__.__name__}.{name} is read-only")


# ---------------------------------------------------------------------------
# types

class _TypeNode:
    _key = None  # `alpha_key`, kept by `_key`

    def __str__(self):
        return render_type(self)


@record
class SortRef(_TypeNode):
    name: str


@record
class TypeVar(_TypeNode):
    name: str


@record
class Arrow(_TypeNode):
    domain: "Type"
    codomain: "Type"


@record
class Forall(_TypeNode):
    """Second-order quantification; the bound variable may be vacuous."""

    var: str
    body: "Type"


Type = SortRef | TypeVar | Arrow | Forall

PROP = SortRef("t")


# ---------------------------------------------------------------------------
# terms

class _TermNode:
    # kept on the node, not as fields: its `alpha_key`, its text per style
    # (see `_rt`), and its formula and its reference (see `logic._formula`
    # and `logic._ref`)
    _key = _ascii = _unicode = _formula = _ref = None

    def __str__(self):
        return render_term(self)


@record
class Var(_TermNode):
    name: str
    type: "Type"


@record
class Const(_TermNode):
    name: str
    type: "Type"


@record
class App(_TermNode):
    fun: "Term"
    arg: "Term"


@record
class Abs(_TermNode):
    var: str
    var_type: "Type"
    body: "Term"


@record
class TyApp(_TermNode):
    fun: "Term"
    arg_type: "Type"


@record
class TyAbs(_TermNode):
    var: str
    body: "Term"


Term = Var | Const | App | Abs | TyApp | TyAbs


_NODES = (_TypeNode, _TermNode)


def is_type(x) -> bool:
    return isinstance(x, _TypeNode)


def is_term(x) -> bool:
    return isinstance(x, _TermNode)


# ---------------------------------------------------------------------------
# contexts

def _check_sorts(ty, sorts, what):
    match ty:
        case SortRef():
            if ty.name not in sorts:
                raise TypingError(f"unknown sort '{ty.name}' in {what}")
        case Arrow():
            _check_sorts(ty.domain, sorts, what)
            _check_sorts(ty.codomain, sorts, what)
        case Forall():
            _check_sorts(ty.body, sorts, what)


class Context:
    """Declared sorts plus typed constants and typed free variables.

    Constants and variables live in disjoint namespaces (the syntax already
    separates them: constants are written `#c`).  The proposition sort `t`
    is always present.
    """

    def __init__(self, sorts=(), constants=None, variables=None):
        self.sorts: set[str] = {str(s) for s in sorts} | {"t"}
        self.constants: dict[str, Type] = dict(constants or {})
        self.variables: dict[str, Type] = dict(variables or {})
        clash = self.constants.keys() & self.variables.keys()
        if clash:
            raise TypingError(
                f"names used both as constant and as variable: {sorted(clash)}")
        for name, ty in self.constants.items():
            _check_sorts(ty, self.sorts, f"the type of constant '#{name}'")
        for name, ty in self.variables.items():
            _check_sorts(ty, self.sorts, f"the type of variable '{name}'")

    def __repr__(self):
        return (f"Context(sorts={sorted(self.sorts)}, "
                f"constants={len(self.constants)}, variables={len(self.variables)})")


# ---------------------------------------------------------------------------
# free variables

def free_vars(term) -> dict:
    """Free term variables of a term, mapped to their annotated types."""
    out: dict[str, Type] = {}
    _free_vars(term, frozenset(), out, set())
    return out


def _free_vars(t, bound, out, seen):
    # a module function, not a closure: a closure that calls itself is a
    # reference cycle, left to the cyclic collector after every call.
    # Paths to a shared part branch only at an application, the one node
    # with two children, so each is walked once per set of bound names
    match t:
        case Var():
            if t.name not in bound:
                out.setdefault(t.name, t.type)
        case App():
            if (key := (id(t), bound)) not in seen:
                seen.add(key)
                _free_vars(t.fun, bound, out, seen)
                _free_vars(t.arg, bound, out, seen)
        case Abs():
            _free_vars(t.body, bound | {t.var}, out, seen)
        case TyApp():
            _free_vars(t.fun, bound, out, seen)
        case TyAbs():
            _free_vars(t.body, bound, out, seen)


def free_type_vars(target) -> set:
    """Free type variables of a type, or of a term's type annotations."""
    t = target
    match t:
        case SortRef():
            return set()
        case TypeVar():
            return {t.name}
        case Arrow():
            return free_type_vars(t.domain) | free_type_vars(t.codomain)
        case Forall() | TyAbs():
            return free_type_vars(t.body) - {t.var}
        case Var() | Const():
            return free_type_vars(t.type)
        case App():
            return free_type_vars(t.fun) | free_type_vars(t.arg)
        case Abs():
            return free_type_vars(t.var_type) | free_type_vars(t.body)
        case TyApp():
            return free_type_vars(t.fun) | free_type_vars(t.arg_type)
    raise KernelError(f"not a type or term: {target!r}")


def fresh_name(base: str, avoid) -> str:
    """Smallest `base`, `base1`, `base2`, ... not contained in `avoid`."""
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# alpha-equivalence

def alpha_key(x):
    """A hashable canonical form of a type or term: two keys are equal
    exactly when their arguments are alpha-equivalent.

    Bound term variables and bound type variables become de Bruijn indices,
    counted separately; free variables and constants keep their names and
    the keys of their annotations.  Every node is tagged by its
    constructor, so the key of a type never equals the key of a term.
    """
    return _key(x, (), ())


def _index(bound, name):
    return bound[::-1].index(name) if name in bound else name


def _key(x, venv, tenv):
    """`x`'s key under the term variables `venv` and the type variables
    `tenv` bound around it, innermost last.  Outside every binder (for a
    type, outside every type binder: it holds no term variable) the key
    depends on the node alone, so it is kept on the node and a shared
    node is walked once; under a binder it is not."""
    top = not tenv and (not venv or isinstance(x, _TypeNode))
    key = getattr(x, "_key", None) if top else None
    if key is not None:
        return key
    match x:
        case SortRef():
            key = ("SortRef", x.name)
        case TypeVar():
            key = ("TypeVar", _index(tenv, x.name))
        case Arrow():
            key = ("Arrow", _key(x.domain, venv, tenv),
                   _key(x.codomain, venv, tenv))
        case Forall():
            key = ("Forall", _key(x.body, venv, tenv + (x.var,)))
        case Var():
            key = ("Var", _index(venv, x.name), _key(x.type, venv, tenv))
        case Const():
            key = ("Const", x.name, _key(x.type, venv, tenv))
        case App():
            key = ("App", _key(x.fun, venv, tenv), _key(x.arg, venv, tenv))
        case Abs():
            key = ("Abs", _key(x.var_type, venv, tenv),
                   _key(x.body, venv + (x.var,), tenv))
        case TyApp():
            key = ("TyApp", _key(x.fun, venv, tenv),
                   _key(x.arg_type, venv, tenv))
        case TyAbs():
            key = ("TyAbs", _key(x.body, venv, tenv + (x.var,)))
        case _:
            raise KernelError(f"not a type or term: {x!r}")
    if top:
        object.__setattr__(x, "_key", key)
    return key


def alpha_equiv(a, b) -> bool:
    """True iff `a` and `b` are identical up to consistent renaming of bound
    term and type variables: two types or two terms with one
    `alpha_key`."""
    if isinstance(a, _NODES) and isinstance(b, _NODES):
        return a is b or alpha_key(a) == alpha_key(b)
    return False


# ---------------------------------------------------------------------------
# substitution

def subst_type(target, tyvar: str, replacement):
    """Capture-avoiding substitution of a type for a type variable.

    Works on types and on terms; on terms it rewrites the type annotations
    of variables, constants, abstractions and type applications.  A node
    none of whose children changed is returned as it is, so the result
    shares every part the substitution leaves alone.
    """
    a, rep, t = tyvar, replacement, target
    match t:
        case SortRef():
            return t
        case TypeVar():
            return rep if t.name == a else t
        case Arrow():
            d, c = subst_type(t.domain, a, rep), subst_type(t.codomain, a, rep)
            return t if d is t.domain and c is t.codomain else Arrow(d, c)
        case Var() | Const():
            ty = subst_type(t.type, a, rep)
            return t if ty is t.type else type(t)(t.name, ty)
        case App():
            f, x = subst_type(t.fun, a, rep), subst_type(t.arg, a, rep)
            return t if f is t.fun and x is t.arg else App(f, x)
        case Abs():
            ty, b = subst_type(t.var_type, a, rep), subst_type(t.body, a, rep)
            return t if ty is t.var_type and b is t.body else Abs(t.var, ty, b)
        case TyApp():
            f, ty = subst_type(t.fun, a, rep), subst_type(t.arg_type, a, rep)
            return t if f is t.fun and ty is t.arg_type else TyApp(f, ty)
        case Forall() | TyAbs():
            v, b = t.var, t.body
            if v == a:
                return t
            if v in free_type_vars(rep) and a in free_type_vars(b):
                v1 = fresh_name(v, free_type_vars(rep) | free_type_vars(b) | {a})
                b = subst_type(b, v, TypeVar(v1))
                return type(t)(v1, subst_type(b, a, rep))
            b1 = subst_type(b, a, rep)
            return t if b1 is b else type(t)(v, b1)
    raise KernelError(f"not a type or term: {target!r}")


def subst_term(body, var: str, value):
    """Capture-avoiding substitution of `value` for free occurrences of `var`.

    The value's type must agree with the type at which `var` occurs; bound
    variables and bound type variables are renamed as needed.  `_subst` is
    the same substitution without the check, for terms already typed.
    """
    expected = free_vars(body).get(var)
    if expected is not None:
        actual = type_of(value)
        if not alpha_equiv(actual, expected):
            raise TypingError(
                f"cannot substitute a term of type {actual} for '{var}' of type {expected}")
    return _subst(body, var, value, set(free_vars(value)))


def _subst(t, x, v, v_fvs, step=None):
    """`t` with `v`, whose free variables are `v_fvs`, for `x`.

    With `step`, `t` and `v` are normal and the substitution is
    hereditary: a redex it makes, where `v` lands at the head of an
    application, is contracted at once (see `_apply`), so the result is
    normal too.  A node none of whose children changed is returned as it
    is: with `step` it is normal, so it is its own normal form.
    """
    match t:
        case Var():
            return v if t.name == x else t
        case Const():
            return t
        case App():
            f = _subst(t.fun, x, v, v_fvs, step)
            a = _subst(t.arg, x, v, v_fvs, step)
            if f is t.fun and a is t.arg:
                return t
            return App(f, a) if step is None else _apply(f, a, step)
        case Abs():
            y, ty, b = t.var, t.var_type, t.body
            if y == x:
                return t
            if y in v_fvs and x in free_vars(b):
                y1 = fresh_name(y, v_fvs | set(free_vars(b)) | {x})
                b = _subst(b, y, Var(y1, ty), {y1})
                return Abs(y1, ty, _subst(b, x, v, v_fvs, step))
            b1 = _subst(b, x, v, v_fvs, step)
            return t if b1 is b else Abs(y, ty, b1)
        case TyApp():
            f, ty = _subst(t.fun, x, v, v_fvs, step), t.arg_type
            if f is t.fun:
                return t
            return TyApp(f, ty) if step is None else _apply(f, ty, step)
        case TyAbs():
            a, b = t.var, t.body
            if a in free_type_vars(v) and x in free_vars(b):
                a1 = fresh_name(a, free_type_vars(v) | free_type_vars(b))
                b = subst_type(b, a, TypeVar(a1))
                return TyAbs(a1, _subst(b, x, v, v_fvs, step))
            b1 = _subst(b, x, v, v_fvs, step)
            return t if b1 is b else TyAbs(a, b1)
    raise KernelError(f"not a term: {t!r}")


def _apply(f, a, step):
    """The normal form of `f` applied to the term or type `a`, both normal.

    Only the application itself can be a redex; it is contracted by
    hereditary substitution, which contracts in turn the redexes that
    substitution makes, and `step()` is called once per contraction.
    Type substitution makes no term redex, so a type-beta step ends there.
    """
    if is_type(a):
        if isinstance(f, TyAbs):
            step()
            return subst_type(f.body, f.var, a)
        return TyApp(f, a)
    if isinstance(f, Abs):
        step()
        if isinstance(a, Var) and a.name == f.var:
            return f.body    # a variable for itself: nothing to substitute
        return _subst(f.body, f.var, a, set(free_vars(a)), step)
    return App(f, a)


# ---------------------------------------------------------------------------
# typing

def type_of(term, ctx: Context | None = None):
    """The unique type of a Church-annotated term.

    With a context, free variables and constants must be declared there and
    annotations must agree with the declarations; without one, leaf
    annotations are trusted.  Raises TypingError on any rule violation,
    including the side condition on type abstraction.
    """
    return _type_of(term, ctx, {}, {})


def _type_of(t, ctx, bound, free_seen):
    match t:
        case Var():
            name, ty = t.name, t.type
            if name in bound:
                if not alpha_equiv(ty, bound[name]):
                    raise TypingError(
                        f"variable '{name}' is annotated {ty} but bound at {bound[name]}")
                return ty
            if ctx is not None:
                declared = ctx.variables.get(name)
                if declared is None:
                    raise TypingError(f"unbound variable '{name}'")
                if not alpha_equiv(ty, declared):
                    raise TypingError(
                        f"variable '{name}' is annotated {ty} but declared {declared}")
            seen = free_seen.setdefault(name, ty)
            if not alpha_equiv(seen, ty):
                raise TypingError(
                    f"free variable '{name}' occurs at both {seen} and {ty}")
            return ty
        case Const():
            name, ty = t.name, t.type
            if ctx is not None:
                declared = ctx.constants.get(name)
                if declared is None:
                    raise TypingError(f"unknown constant '#{name}'")
                if not alpha_equiv(ty, declared):
                    raise TypingError(
                        f"constant '#{name}' is annotated {ty} but declared {declared}")
            return ty
        case App():
            fun_ty = _type_of(t.fun, ctx, bound, free_seen)
            arg_ty = _type_of(t.arg, ctx, bound, free_seen)
            if not isinstance(fun_ty, Arrow):
                raise TypingError(f"cannot apply a term of type {fun_ty}")
            if not alpha_equiv(fun_ty.domain, arg_ty):
                raise TypingError(
                    f"application mismatch: function expects {fun_ty.domain}, "
                    f"argument has type {arg_ty}")
            return fun_ty.codomain
        case Abs():
            if ctx is not None:
                _check_sorts(t.var_type, ctx.sorts, f"the binder '{t.var}'")
            inner = dict(bound)
            inner[t.var] = t.var_type
            return Arrow(t.var_type, _type_of(t.body, ctx, inner, free_seen))
        case TyApp():
            fun_ty = _type_of(t.fun, ctx, bound, free_seen)
            if not isinstance(fun_ty, Forall):
                raise TypingError(f"cannot type-apply a term of type {fun_ty}")
            if ctx is not None:
                _check_sorts(t.arg_type, ctx.sorts, "a type argument")
            return subst_type(fun_ty.body, fun_ty.var, t.arg_type)
        case TyAbs():
            body_ty = _type_of(t.body, ctx, bound, free_seen)
            for name, vty in free_vars(t.body).items():
                if t.var in free_type_vars(vty):
                    raise TypingError(
                        f"cannot generalize over '{t.var}': it occurs free in"
                        f" the type of free variable '{name}'")
            return Forall(t.var, body_ty)
    raise TypingError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# concrete syntax

_TOKEN_RE = re.compile(
    r"(?P<const>#(?:[A-Za-z_][A-Za-z0-9_]*|&|\||=>))"
    r"|(?P<tyvar>'[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrow>->)"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<lbrace>\{)|(?P<rbrace>\})"
    r"|(?P<dot>\.)|(?P<colon>:)"
    r"|(?P<space>[ \t\r\n]+)|(?P<stray>.)"
)

_KEYWORDS = ("lam", "Lam", "Pi")


def _tokenize(text):
    """`(kind, text, offset)` for each token of `text`, then an "eof"
    token at its end."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "stray":
            raise _error(f"unexpected character {m.group()!r}", text,
                         m.start())
        if kind != "space":
            toks.append((kind, m.group(), m.start()))
    toks.append(("eof", "", len(text)))
    return toks


def _error(message, text, offset):
    """A ParseError at `offset` in `text`, with its line and column."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - line_start + 1)


class _Parser:
    def __init__(self, text, sorts, constants=None, variables=None):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.sorts = sorts
        self.constants = constants or {}
        self.variables = variables or {}
        self.bound = []

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, message):
        _, text, at = self.peek()
        found = repr(text) if text else "end of input"
        raise _error(f"{message}, found {found}", self.text, at)

    def expect(self, kind, message):
        if self.peek()[0] != kind:
            self.fail(message)
        return self.advance()[1]

    # -- types

    def type_(self):
        kind, text, _ = self.peek()
        if kind == "ident" and text == "Pi":
            self.advance()
            v = self.expect("tyvar", "expected a type variable after 'Pi'")
            self.expect("dot", "expected '.' after the quantified variable")
            return Forall(v[1:], self.type_())
        left = self.type_atom()
        if self.peek()[0] == "arrow":
            self.advance()
            return Arrow(left, self.type_())
        return left

    def type_atom(self):
        kind, text, at = self.peek()
        if kind == "ident" and text not in _KEYWORDS:
            self.advance()
            if text != "t" and text not in self.sorts:
                raise _error(f"unknown sort '{text}'", self.text, at)
            return SortRef(text)
        if kind == "tyvar":
            self.advance()
            return TypeVar(text[1:])
        if kind == "lparen":
            self.advance()
            ty = self.type_()
            self.expect("rparen", "expected ')'")
            return ty
        self.fail("expected a type")

    # -- terms

    def term(self):
        kind, text, _ = self.peek()
        if kind == "ident" and text == "lam":
            self.advance()
            at = self.peek()[2]
            name = self.expect("ident", "expected a variable name after 'lam'")
            if name in _KEYWORDS:
                raise _error(f"'{name}' is reserved", self.text, at)
            self.expect("colon", "expected ':' after the bound variable")
            ty = self.type_()
            self.expect("dot", "expected '.' after the binder")
            self.bound.append((name, ty))
            body = self.term()
            self.bound.pop()
            return Abs(name, ty, body)
        if kind == "ident" and text == "Lam":
            self.advance()
            v = self.expect("tyvar", "expected a type variable after 'Lam'")
            self.expect("dot", "expected '.' after the binder")
            return TyAbs(v[1:], self.term())
        return self.app()

    def _starts_atom(self, tok):
        kind, text, _ = tok
        if kind in ("const", "lparen"):
            return True
        return kind == "ident" and text not in _KEYWORDS

    def app(self):
        out = self.postfix()
        while self._starts_atom(self.peek()):
            out = App(out, self.postfix())
        return out

    def postfix(self):
        out = self.primary()
        while self.peek()[0] == "lbrace":
            self.advance()
            ty = self.type_()
            self.expect("rbrace", "expected '}'")
            out = TyApp(out, ty)
        return out

    def primary(self):
        kind, text, at = self.peek()
        if kind == "ident" and text not in _KEYWORDS:
            self.advance()
            for name, ty in reversed(self.bound):
                if name == text:
                    return Var(name, ty)
            if text in self.variables:
                return Var(text, self.variables[text])
            raise _error(f"unbound identifier '{text}'", self.text, at)
        if kind == "const":
            self.advance()
            name = text[1:]
            if name not in self.constants:
                raise _error(f"unknown constant '#{name}'", self.text, at)
            return Const(name, self.constants[name])
        if kind == "lparen":
            self.advance()
            t = self.term()
            self.expect("rparen", "expected ')'")
            return t
        self.fail("expected a term")


def parse_type(text: str, env):
    """Parse the ASCII type syntax against a sort environment: a `Context`
    or a set of sort names, read in place.  `t` is always a sort."""
    p = _Parser(text, env.sorts if isinstance(env, Context) else env)
    try:
        ty = p.type_()
    except RecursionError:
        raise ParseError("nested too deeply") from None
    p.expect("eof", "unexpected trailing input")
    return ty


def parse_term(text: str, ctx: Context):
    """Parse the ASCII term syntax and type-check the result against `ctx`.

    The parser takes every constant, variable and sort from `ctx`, so the
    result agrees with it by construction and is typed without it."""
    return _parse_term(text, ctx)[0]


def _parse_term(text, ctx):
    """`parse_term`'s term, and the type its check found."""
    try:
        p = _Parser(text, ctx.sorts, ctx.constants, ctx.variables)
        t = p.term()
        p.expect("eof", "unexpected trailing input")
        return t, type_of(t)
    except RecursionError:
        raise ParseError("nested too deeply") from None


# ---------------------------------------------------------------------------
# rendering

# one table per style, for terms, types and formulae (see `logic`);
# "kept" names the attribute a node keeps its text in
_SYMBOLS = {
    "ascii": {"tyvar": "'", "arrow": " -> ", "pi": "Pi ", "const": "#",
              "lam": "lam ", "colon": ":", "tylam": "Lam ",
              "paren_ann": False, "and": "&", "or": "|", "implies": "=>",
              "exists": "exists ", "forall": "forall ", "iota": "iota",
              "kept": "_ascii"},
    "unicode": {"tyvar": "", "arrow": "→", "pi": "Π", "const": "",
                "lam": "λ", "colon": "^", "tylam": "Λ", "paren_ann": True,
                "and": "∧", "or": "∨", "implies": "⇒", "exists": "∃",
                "forall": "∀", "iota": "ι", "kept": "_unicode"},
}


def _symbols(style):
    if style not in _SYMBOLS:
        raise ValueError(f"unknown style {style!r}")
    return _SYMBOLS[style]


def render_type(ty, style: str = "ascii") -> str:
    return _rty(ty, _symbols(style))


def _rty(ty, sym):
    match ty:
        case SortRef():
            return ty.name
        case TypeVar():
            return f"{sym['tyvar']}{ty.name}"
        case Arrow():
            dom = _rty(ty.domain, sym)
            if isinstance(ty.domain, (Arrow, Forall)):
                dom = f"({dom})"
            return f"{dom}{sym['arrow']}{_rty(ty.codomain, sym)}"
        case Forall():
            return f"{sym['pi']}{sym['tyvar']}{ty.var}. {_rty(ty.body, sym)}"
    raise KernelError(f"not a type: {ty!r}")


def render_term(term, style: str = "ascii") -> str:
    """ASCII rendering re-parses to an alpha-equivalent term; the unicode
    rendering is for display only."""
    return _rt(term, _symbols(style))


def _rt(t, sym):
    """`t`'s text.  It depends on the node and the style alone, so a
    compound node keeps it, in the attribute that `sym["kept"]` names,
    and a node shared by several terms is printed once.  Only a term
    node's kept text is read: a formula keeps its own."""
    match t:
        case Var():
            return t.name
        case Const():
            return f"{sym['const']}{t.name}"
    s = getattr(t, sym["kept"]) if isinstance(t, _TermNode) else None
    if s is not None:
        return s
    match t:
        case Abs():
            ann = _rty(t.var_type, sym)
            # a superscript annotation needs parentheses when compound
            if sym["paren_ann"] and isinstance(t.var_type, (Arrow, Forall)):
                ann = f"({ann})"
            s = f"{sym['lam']}{t.var}{sym['colon']}{ann}. {_rt(t.body, sym)}"
        case TyAbs():
            s = f"{sym['tylam']}{sym['tyvar']}{t.var}. {_rt(t.body, sym)}"
        case App():
            fun = _rt(t.fun, sym)
            if isinstance(t.fun, (Abs, TyAbs)):
                fun = f"({fun})"
            arg = _rt(t.arg, sym)
            if isinstance(t.arg, (App, Abs, TyAbs)):
                arg = f"({arg})"
            s = f"{fun} {arg}"
        case TyApp():
            fun = _rt(t.fun, sym)
            if isinstance(t.fun, (App, Abs, TyAbs)):
                fun = f"({fun})"
            s = f"{fun}{{{_rty(t.arg_type, sym)}}}"
        case _:
            raise KernelError(f"not a term: {t!r}")
    object.__setattr__(t, sym["kept"], s)
    return s
