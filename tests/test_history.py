"""Answers that do not depend on the calls made before them.

A lexicon entry keeps what it determines, and a term or formula node
keeps its key, its text, its formula and its reference.  So a seeded
random sequence of public calls on shared objects is checked call by
call against the same call on objects built anew for it.
"""

import random
from itertools import count

from lexsem import (RESOURCE_LIMIT, alpha_key, felicity, load_lexicon,
                    normalize, parse_tree, render_formula, render_term,
                    to_formula)

import termgen
from conftest import fixture_text
from test_composition import NON_NORMAL, NON_NORMAL_NOUNS, _fan_out_text


def _cases():
    """`(lexicon text, tree text)` over the four fixture lexica, lexica
    whose terms take steps to normalize, so that a kept result has steps
    that a low fuel is below, and random copredication problems."""
    for name in ("montague", "liverpool", "assinatura", "fanout"):
        for line in fixture_text(f"trees_{name}.txt").splitlines():
            if line.strip() and not line.startswith("#"):
                yield fixture_text(f"{name}.mgl"), line
    for tree in ("(spread_out Liverpool)", "((AND spread_out voted) Liverpool)"):
        yield NON_NORMAL, tree
    for tree in ("(p w)", "((AND p q) w)"):
        yield _fan_out_text(3, "odd"), tree
    for tree in ("(THE abstraction)", "(THE constant)"):
        yield NON_NORMAL_NOUNS, tree
    gen = termgen.RandomCopreds(26)
    for _ in range(20):
        inst = gen.instance()
        yield inst.lexicon_text, inst.tree_text


def _fresh(case, fuel=10000):
    text, tree = case
    return felicity(parse_tree(tree), load_lexicon(text), fuel)


def _parts(verdict):
    """The terms and formulae of a verdict's readings, in a fixed order."""
    return [x for r in verdict.readings
            for x in (r.term, r.source, r.formula, *r.presuppositions)
            if x is not None]


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except Exception as err:
        return type(err).__name__, str(err)


CALLS = {
    "render_term": render_term,
    "render_formula": render_formula,
    "to_formula": lambda x, _: to_formula(x),
    "alpha_key": lambda x, _: alpha_key(x),
    "normalize": lambda x, _: normalize(x),
}


def test_an_answer_does_not_depend_on_the_calls_before_it():
    rng = random.Random(13)
    cases = list(_cases())
    lexica = {text: load_lexicon(text) for text, _ in cases}
    trees = [parse_tree(tree) for _, tree in cases]
    charges = [next(fuel for fuel in count(1)
                    if _fresh(case, fuel).status != RESOURCE_LIMIT)
               for case in cases]
    # the shared objects: the first parts of every tree's readings, each
    # judged once, so that calls meet the same objects again
    shared = {}
    for i, (text, _) in enumerate(cases):
        for j, x in enumerate(_parts(felicity(trees[i], lexica[text]))[:8]):
            shared[i, j] = x
    sites = sorted(shared)
    calls = 0
    for _ in range(800):
        if rng.random() < 0.3:
            i = rng.randrange(len(cases))
            fuel = rng.choice([10000, rng.randint(1, charges[i] + 1)])
            got = felicity(trees[i], lexica[cases[i][0]], fuel)
            assert got == _fresh(cases[i], fuel), (cases[i], fuel)
        else:
            name = rng.choice(sorted(CALLS))
            i, j = site = rng.choice(sites)
            style = rng.choice(["ascii", "unicode"])
            fresh = _parts(_fresh(cases[i]))[j]
            assert _outcome(CALLS[name], shared[site], style) == \
                _outcome(CALLS[name], fresh, style), (name, cases[i], j)
        calls += 1
    assert calls == 800 and len(sites) >= 100
