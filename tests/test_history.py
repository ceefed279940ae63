"""Answers that do not depend on the calls made before them.

A lexicon entry keeps what it determines, and a term or formula node
keeps its key, its text, its formula and its reference.  So a seeded
random sequence of public calls on shared objects is checked call by
call against the same call on objects built anew for it.
"""

import random
from itertools import count

from lexsem import (RESOURCE_LIMIT, alpha_key, candidates, felicity,
                    load_lexicon, normalize, parse_tree, parse_type,
                    render_formula, render_term, to_formula)
from lexsem.lexicon import coercion_pairs

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

# a word's coercions, asked in α-equal spellings of one type: the entry
# keeps an answer per α-key, and each answer is still in the caller's types
COERCING = ("sorts: e f\npred c : e\npred g : e -> f\nword w : e = #c\n"
            "  morph m : e -> f = #g [rigid]\n")
SPELLINGS = ("e", "f", "Pi 'a. 'a -> t", "Pi 'b. 'b -> t")
COERCIONS = {
    "candidates": lambda entry, xi, alpha, _: candidates(entry, xi, alpha),
    "coercion_pairs": coercion_pairs,
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
    coercing = load_lexicon(COERCING)
    calls = 0
    for _ in range(800):
        roll = rng.random()
        if roll < 0.3:
            i = rng.randrange(len(cases))
            fuel = rng.choice([10000, rng.randint(1, charges[i] + 1)])
            got = felicity(trees[i], lexica[cases[i][0]], fuel)
            assert got == _fresh(cases[i], fuel), (cases[i], fuel)
        elif roll < 0.45:
            name = rng.choice(sorted(COERCIONS))
            spelt = [rng.choice(SPELLINGS) for _ in range(3)]
            types = [parse_type(t, coercing.context) for t in spelt]
            fresh = load_lexicon(COERCING).entry("w")
            assert _outcome(COERCIONS[name], coercing.entry("w"), *types) == \
                _outcome(COERCIONS[name], fresh, *types), (name, spelt)
        else:
            name = rng.choice(sorted(CALLS))
            i, j = site = rng.choice(sites)
            style = rng.choice(["ascii", "unicode"])
            fresh = _parts(_fresh(cases[i]))[j]
            assert _outcome(CALLS[name], shared[site], style) == \
                _outcome(CALLS[name], fresh, style), (name, cases[i], j)
        calls += 1
    assert calls == 800 and len(sites) >= 100
