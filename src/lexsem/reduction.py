"""Beta and type-beta reduction with step traces.

The default strategy is leftmost-outermost; a randomized strategy is
available for cross-checking confluence.  `normalize`, `normal_form`
and the unchecked `_normal_form` run one fuel-guarded loop: find a
redex, spend a step, contract it.  The first two type-check their
input once, on entry: beta and type-beta preserve types, so no step
checks them again.
"""

from __future__ import annotations

from .kernel import (Abs, App, KernelError, Term, TyAbs, TyApp, _subst,
                     free_vars, record, render_term, subst_type, type_of)

BETA = "beta"
TYPE_BETA = "type-beta"


class FuelExhausted(KernelError):
    pass


class TraceStep(metaclass=record):
    path: tuple
    rule: str
    result: "Term"


class ReductionTrace(metaclass=record):
    steps: list

    def __len__(self):
        return len(self.steps)


def find_redexes(term) -> list:
    """All redex positions in preorder, as (path, rule) pairs.

    Paths are tuples of child indices: App has children 0 (function) and
    1 (argument); Abs, TyApp and TyAbs have a single child 0.  Preorder
    means the first entry is the leftmost-outermost redex.
    """
    return list(_redexes(term))


def _redexes(t, path=()):
    """Yield `find_redexes(t)` one at a time, so that the normal-order
    loop takes the first without walking past it."""
    # a module function, not a closure: see `kernel._free_vars`
    match t:
        case App():
            if isinstance(t.fun, Abs):
                yield path, BETA
            yield from _redexes(t.fun, path + (0,))
            yield from _redexes(t.arg, path + (1,))
        case Abs() | TyAbs():
            yield from _redexes(t.body, path + (0,))
        case TyApp():
            if isinstance(t.fun, TyAbs):
                yield path, TYPE_BETA
            yield from _redexes(t.fun, path + (0,))


def reduce_at(term, path):
    """Contract the redex at `path` and return the whole term, which is
    trusted to be well-typed: the substitution checks nothing."""
    t = term
    if not path:
        if isinstance(t, App) and isinstance(t.fun, Abs):
            return _subst(t.fun.body, t.fun.var, t.arg, set(free_vars(t.arg)))
        if isinstance(t, TyApp) and isinstance(t.fun, TyAbs):
            return subst_type(t.fun.body, t.fun.var, t.arg_type)
        raise KernelError(f"no redex at the given position: {render_term(t)}")
    head, rest = path[0], path[1:]
    match t:
        case App():
            if head == 0:
                return App(reduce_at(t.fun, rest), t.arg)
            return App(t.fun, reduce_at(t.arg, rest))
        case Abs():
            return Abs(t.var, t.var_type, reduce_at(t.body, rest))
        case TyApp():
            return TyApp(reduce_at(t.fun, rest), t.arg_type)
        case TyAbs():
            return TyAbs(t.var, reduce_at(t.body, rest))
    raise KernelError("path leads outside the term")


def reduce_step(term):
    """One leftmost-outermost step: (term', path, rule), or None if normal."""
    path, rule = next(_redexes(term), (None, None))
    return None if path is None else (reduce_at(term, path), path, rule)


def normalize(term, fuel: int = 10000, strategy: str = "leftmost", rng=None):
    """Reduce to normal form; returns (normal form, trace).

    Raises TypingError, before any step, when `term` is ill-typed.  `fuel`
    bounds the number of steps and must be at least 1.  With strategy
    "random" the redex contracted at each step is drawn from `rng` (a
    random.Random).
    """
    type_of(term)
    step = _Meter(fuel)
    if strategy not in ("leftmost", "random"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "random" and rng is None:
        raise ValueError("the random strategy needs an rng")
    steps = []
    choose = rng.choice if strategy == "random" else None
    return _normal_form(term, step, choose, steps), ReductionTrace(steps)


def normal_form(term, fuel: int = 10000):
    """`normalize(term, fuel)[0]`, by the same loop, without the trace."""
    type_of(term)
    return _normal_form(term, _Meter(fuel))


class _Meter:
    """Counts reduction steps against `fuel`: calling it spends `n` steps
    and raises FuelExhausted once more than `fuel` are spent."""

    def __init__(self, fuel):
        if fuel < 1:
            raise ValueError("fuel must be >= 1")
        self.fuel = fuel
        self.spent = 0

    def __call__(self, n=1):
        self.spent += n
        if self.spent > self.fuel:
            raise FuelExhausted(f"no normal form after {self.fuel} steps")


def _built(fuel, spent, build):
    """`(result, steps)` of work on parts that took `spent` steps:
    `build(step)` makes the result, `step()` counting each contraction.
    The result is None exactly when the steps exceed `fuel`, and then
    nothing is built past it."""
    meter = _Meter(fuel)
    try:
        meter(spent)
        return build(meter), meter.spent
    except FuelExhausted:
        return None, meter.spent


def _normal_form(term, step, choose=None, trace=None):
    """The reduction loop, without the entry check, for terms built from
    type-checked parts: until no redex is left, call `step()` and contract
    the redex `choose` picks from `find_redexes`, or by default the
    leftmost-outermost one, appending a TraceStep to `trace` if given."""
    while (redex := next(_redexes(term), None)) is not None:
        step()
        path, rule = choose(find_redexes(term)) if choose else redex
        term = reduce_at(term, path)
        if trace is not None:
            trace.append(TraceStep(path, rule, term))
    return term


def render_trace(trace) -> str:
    """One line per step: `<step#> <rule> at <path> ⇒ <term>`.  A step
    shares every subterm off the contracted path with the step before,
    and a shared node keeps its text, so each is printed once."""
    lines = []
    for i, step in enumerate(trace.steps, 1):
        at = ".".join(str(c) for c in step.path) or "ε"
        lines.append(f"{i} {step.rule} at {at} ⇒ {render_term(step.result)}")
    return "\n".join(lines)
