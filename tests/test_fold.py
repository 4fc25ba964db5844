"""The edge-census fold against the per-edge reference folds.

``topoidx.indices`` evaluates every index as one fold over the edge census
(sorted pair of endpoint values -> edge count).  ``reference`` keeps the
per-edge folds it replaced.  On small random graphs, connected or not, the two
must agree exactly, down to the exception type and the edge an
``InverseUndefined`` names.  Non-integer general powers are floats summed per
class instead of per edge, so they are compared to 1e-12 relative.  Indices
over the neighbourhood-local sources also fold over a disjoint union.
"""

import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from topoidx import exact, indices
from topoidx.errors import InverseUndefined, TopoidxError, UnsupportedEvaluation
from topoidx.exact import ExpPoly
from topoidx.functionals import DOMINATION_MAX, edge_census
from topoidx.graph import Graph, generate_family
from topoidx.indices import (
    _KERNELS,
    _fold,
    AGGREGATIONS,
    FORMS,
    SOURCES,
    SPECIAL_NAMES,
    Descriptor,
    all_index_names,
    evaluate,
    evaluate_descriptor,
    lookup,
    registry_names,
)

import reference
from conftest import preferential_attachment, random_graph, random_graph_with_isolated

DESCRIPTORS = [lookup(name)[0] for name in registry_names()]
GENERAL = [d for d in DESCRIPTORS if d.transform == "general"]

EXAMPLES = settings(max_examples=15, deadline=None)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return Graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])


def outcome(fn, *args):
    try:
        return fn(*args)
    except TopoidxError as exc:
        return exc


def assert_same(got, want, context):
    assert type(got) is type(want), (context, got, want)
    if isinstance(want, InverseUndefined):
        assert got.edge == want.edge, context
    elif not isinstance(want, Exception):
        assert got == want, (context, got, want)



# Symmetry is what lets the zero-kernel check on sorted census pairs agree
# with the per-edge error path.
VALUES = st.integers(0, 10**6) | st.fractions(min_value=0, max_denominator=10**3)


@settings(max_examples=300, deadline=None)
@given(VALUES, VALUES)
def test_kernels_symmetric_and_match_reference(a, b):
    for variant, kernel in _KERNELS.items():
        want = reference.kernel(variant, a, b)
        assert kernel(a, b) == kernel(b, a) == want, (variant, a, b)
        assert type(kernel(a, b)) is type(want), (variant, a, b)


@EXAMPLES
@given(graphs())
def test_catalog_matches_per_edge_reference(g):
    for d in DESCRIPTORS:
        powers = (0, 1, 2, 3, -1, -2) if d.transform == "general" else (None,)
        for a in powers:
            assert_same(outcome(evaluate_descriptor, g, d, a),
                        outcome(reference.evaluate_descriptor, g, d, a), (d.name, a))


def test_refusal_names_the_first_zero_edge(small_families):
    """Every reciprocal of a zero kernel names the edge that a per-edge scan finds first.

    The engine finds it through the first zero class of the census; the
    cases include zero classes behind a nonzero first class, and censuses
    both kept and streamed.
    """
    rng = random.Random(2020)
    cases = [(label, g) for label, g in small_families if g.n <= DOMINATION_MAX]
    cases += [(f"random{i}", random_graph_with_isolated(rng)) for i in range(60)]
    later, kept = set(), set()
    for label, g in cases:
        for d in DESCRIPTORS:
            if d.transform not in ("inverse", "general"):
                continue
            want = reference.first_zero_edge(g, d.source, d.variant)
            for a in (None,) if d.transform == "inverse" else (-1, F(-1, 2)):
                got = outcome(evaluate_descriptor, g, d, a)
                if want is None:
                    assert not isinstance(got, InverseUndefined), (label, d.name, a)
                else:
                    assert isinstance(got, InverseUndefined), (label, d.name, a, got)
                    assert got.edge == want, (label, d.name, a)
            if want is not None:
                census = edge_census(g, d.source)
                if _KERNELS[d.variant](*next(iter(census))) != 0:
                    later.add((label, d.source, d.variant))
                kept.add(d.source in g._memo)
    assert {("sunflower(5)", "temperature", 4), ("sunflower(5)", "banhatti", 4)} <= later
    assert kept == {True, False}


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_standalone_matches_per_edge_reference(g):
    for name in SPECIAL_NAMES:
        assert_same(outcome(evaluate, g, name),
                    outcome(reference.evaluate_standalone, g, name), name)


@EXAMPLES
@given(graphs())
def test_non_integer_powers_match_to_last_bits(g):
    for d in GENERAL:
        for a in (F(1, 2), F(-2, 3)):
            got = outcome(evaluate_descriptor, g, d, a)
            want = outcome(reference.evaluate_descriptor, g, d, a)
            if isinstance(want, float):
                assert isinstance(got, float), (d.name, a)
                assert math.isclose(got, want, rel_tol=1e-12), (d.name, a, got, want)
            else:
                assert_same(got, want, (d.name, a))


# Every transform of every kernel, with the general names at a spread of
# integral powers, and the general power equal to each named transform.
POWERS = [(t, None) for t in ("identity", "hyper", "inverse")] + [
    ("general", a) for a in (-2, -1, 0, 1, 2, 3)]
GENERAL_NAMED = {1: "identity", 2: "hyper", -1: "inverse"}


@EXAMPLES
@given(graphs())
def test_metamorphic_forms_and_named_powers(g):
    """The exponential forms follow from the value sum, and general(1, 2, -1) is each named transform.

    Over all 28 kernels: Xexp(1) == m, Xexp'(1) == X and MXexp == x^X, or,
    where X is refused, both exponential forms are refused alike; and
    general at a = 1, 2 and -1 gives identity, hyper and inverse in all four
    aggregation x form pairs, down to the exception type and edge.
    """
    for source in SOURCES:
        for variant in _KERNELS:
            seen = {}
            for transform, a in POWERS:
                context = (source, variant, transform, a, g.edges)
                out = seen[transform, a] = {
                    (agg, form): outcome(evaluate_descriptor, g,
                                         Descriptor(source, variant, transform, agg, form), a)
                    for agg in AGGREGATIONS for form in FORMS}
                value = out["sum", "value"]
                sum_exp, product_exp = out["sum", "exponential"], out["product", "exponential"]
                if isinstance(value, Exception):
                    assert_same(sum_exp, value, context)
                    assert_same(product_exp, value, context)
                    continue
                assert sum_exp.evaluate(1) == g.edge_count, context
                assert sum_exp.derivative_at_one() == value, context
                assert product_exp == ExpPoly.monomial(value), context
            for a, transform in GENERAL_NAMED.items():
                for pair, want in seen[transform, None].items():
                    assert_same(seen["general", a][pair], want, (source, variant, a, pair, g.edges))


@EXAMPLES
@given(st.data())
def test_every_name_invariant_under_relabelling(data):
    g = data.draw(graphs())
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    for name in all_index_names():
        got, want = outcome(evaluate, h, name, -2), outcome(evaluate, g, name, -2)
        assert type(got) is type(want), (name, got, want)
        if not isinstance(want, Exception):
            assert got == want, (name, got, want)


# Neither its kv nor its nbd census is kept, and kv kernel 4 is 0 on a class
# that is not the first.
UNKEPT_KV = Graph(8, [(0, 3), (0, 5), (1, 2), (1, 3), (1, 5), (1, 7), (2, 7), (3, 5), (3, 6), (4, 5)])


@EXAMPLES
@given(graphs(), st.randoms(use_true_random=False))
@example(UNKEPT_KV, random.Random(0))
def test_warm_graph_equals_cold_graphs_in_any_order(g, rng):
    """Every catalog value read from a warm memo equals the value on a fresh graph.

    The 448 names at three powers run in a shuffled order on one graph, so
    kernel entries are filled by any of their 16 names first, and at least one
    of the graph's censuses is too large to keep.  Each result, float bits and
    the edge that an ``InverseUndefined`` names included, equals a cold
    evaluation on a fresh ``Graph``.
    """
    calls = [(d, a) for d in DESCRIPTORS for a in (2, -1, F(1, 2))
             if d.transform == "general" or a == 2]
    rng.shuffle(calls)
    warm = [outcome(evaluate_descriptor, g, d, a) for d, a in calls]
    read = {key[0] for key in g._memo if isinstance(key, tuple)}
    assume(read - set(g._memo))
    for (d, a), got in zip(calls, warm):
        assert_same(got, outcome(evaluate_descriptor, Graph(g.n, g.edges), d, a), (d.name, a))


# Sources whose value at a vertex depends only on its neighbourhood, so a
# disjoint union leaves every endpoint value, and so every edge term, as it was.
LOCAL = [d for d in DESCRIPTORS if d.source in ("plain", "kv", "nbd")]
LOCAL_STANDALONE = ("RL5", "RL6", "RL13", "RL14", "RL15")


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph(g.n + h.n, [*g.edges, *((u + g.n, v + g.n) for u, v in h.edges)])


def combine(d, x, y):
    """The index of G + H from the indices of G and H.

    Sums and exp polynomials add; products multiply, and so do the M...exp
    monomials x^(sum of edge terms).
    """
    return x + y if d.aggregation == "sum" else x * y


@settings(max_examples=50, deadline=None)
@given(graphs(max_n=7), graphs(max_n=7))
def test_local_indices_fold_over_disjoint_union(g, h):
    union = disjoint_union(g, h)
    for d in LOCAL:
        for a in (2, -1) if d.transform == "general" else (None,):
            x, y = outcome(evaluate, g, d, a), outcome(evaluate, h, d, a)
            got = outcome(evaluate, union, d, a)
            if isinstance(x, InverseUndefined) or isinstance(y, InverseUndefined):
                assert isinstance(got, InverseUndefined), (d.name, a)
                continue
            assert got == combine(d, x, y), (d.name, a)
            assert type(got) is (ExpPoly if d.form == "exponential" else F), (d.name, a)
    for name in LOCAL_STANDALONE:
        assert evaluate(union, name) == evaluate(g, name) + evaluate(h, name), name


# Per-class terms of every type a fold meets: ints, Fractions and floats.
TERM = (st.integers(-10**30, 10**30)
        | st.fractions(max_denominator=10**6)
        | st.floats(-1e12, 1e12, allow_nan=False))
TERMS = st.lists(st.tuples(TERM, st.integers(1, 10**5)), max_size=12)
# A product raises each term to its count; small counts keep the
# left-to-right reference quick.  Float powers still overflow to inf.
PRODUCT_TERMS = st.lists(st.tuples(TERM, st.integers(1, 40)), max_size=12)


def folded(terms, aggregation):
    """``_fold``'s value over census classes whose i-th has term t and count c."""
    return _fold([c for _, c in terms], [t for t, _ in terms], aggregation, "value")


def test_integer_sum_is_a_fraction():
    total = folded([(3, 2), (10**40, 7), (-5, 1)], "sum")
    assert type(total) is F and total == 7 * 10**40 + 1
    assert type(folded([], "sum")) is F and folded([], "sum") == 0


@settings(max_examples=300, deadline=None)
@given(TERMS)
@example([(0.1, 1), (0.2, 1), (0.3, 1)])
@example([(3, 1), (1e12, 1), (1e-5, 1), (-1e12, 1)])
@example([(F(1, 3), 2), (1e12, 1), (1e-5, 1), (-1e12, 1)])
def test_sum_fold_matches_fraction_start_to_the_bit(terms):
    """Adding from int 0 gives the value and type of adding from Fraction(0).

    Where a float term enters, both add the exact prefix, rounded once, to it,
    and go on adding left to right, so a float result carries the same bits.
    The examples tell left-to-right addition from the compensated float
    summation that ``sum()`` uses from Python 3.12 when its start is an int.
    """
    got = folded(terms, "sum")
    want = sum((c * t for t, c in terms), F(0))
    assert type(got) is type(want), (terms, got, want)
    if isinstance(want, float):
        assert got.hex() == want.hex(), (terms, got, want)
    else:
        assert got == want, (terms, got, want)


def settled(fn, terms):
    """The value of ``fn(terms)``, or OverflowError if an exact factor is past the float range."""
    try:
        return fn(terms)
    except OverflowError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(PRODUCT_TERMS)
@example([(3, 2), (0, 1), (F(-5, 7), 3)])  # a zero term gives 0, not 1
@example([(-2, 3), (F(-1, 3), 2), (-7, 1), (F(5, -9), 4)])
@example([])
@example([(F(2, 3), 3), (1e300, 2), (4, 1)])  # 1e300**2 is inf
@example([(6, 4), (F(9, 4), 2), (F(1, 6), 5)])  # factors cancel across classes
def test_product_fold_matches_left_to_right_to_the_bit(terms):
    """The product fold gives the value and type of the left-to-right product.

    Exact terms are merged into signed exponents and built by squaring over
    the exponents' bits; with any float term the fold is the left-to-right
    product itself, so a float result, inf included, carries the same bits.
    """
    got = settled(lambda ts: folded(ts, "product"), terms)
    want = settled(reference.product_fold, terms)
    assert type(got) is type(want), (terms, got, want)
    if isinstance(want, float):
        assert got.hex() == want.hex(), (terms, got, want)
    else:
        assert got == want, (terms, got, want)


def test_zero_and_empty_products_pinned():
    # path(4) has a 2-2 edge, whose variant-4 kernel |a-b|ab is zero.
    assert evaluate(generate_family("path", 4), "MRL4") == 0
    assert type(evaluate(generate_family("path", 4), "MRL4")) is F
    for name in ("MRL1", "MIRL1"):
        value = evaluate(Graph(3, []), name)
        assert type(value) is F and value == 1, name


# Exact terms only.  Small ones share factors, so that equal values merge,
# factors cancel across classes and a coprime base has to split values.
EXACT_TERM = (st.builds(F, st.integers(-60, 60), st.integers(1, 60))
              | st.integers(-10**30, 10**30)
              | st.fractions(max_denominator=10**6))
EXACT_TERMS = st.lists(st.tuples(EXACT_TERM, st.integers(1, 40)), max_size=12)


def pa_kernel_censuses(test):
    """``test`` with each temperature and Banhatti kernel census of PA(300, 3) as an example.

    Each has 300 to 400 distinct numerators and denominators, which share
    primes below 1024 that ``_coprime_base`` divides out.
    """
    g = preferential_attachment(300, 3)
    for source in ("temperature", "banhatti"):
        census = edge_census(g, source)
        for variant in _KERNELS:
            test = example(terms=[(reference.kernel(variant, *pair), c)
                                  for pair, c in census.items()])(test)
    return test


@pytest.mark.parametrize("small_primes", [[], indices._SMALL_PRIMES], ids=["refined", "reduced"])
@settings(max_examples=300, deadline=None)
@given(terms=EXACT_TERMS)
@example(terms=[(3, 2), (0, 1), (F(-5, 7), 3)])  # a zero term
@example(terms=[(-2, 3), (F(-1, 3), 2), (-7, 1), (F(5, -9), 4)])  # negative terms
@example(terms=[(6, 4), (F(9, 4), 2), (F(1, 6), 5)])  # factors cancel across classes
@example(terms=[(F(2, 3), 3), (F(-3, 2), 3), (F(9, 4), 2), (F(4, 9), 2)])  # to -1
@example(terms=[(F(4, 9), 2), (F(4, 9), 3), (F(12, 35), 5), (F(35, 6), 2), (12, 1)])  # repeats
@example(terms=[(F(1, 6), 2), (F(1, 10), 3)])  # unit numerators
@example(terms=[(F(1031 * 1033, 1039), 2), (F(1039 * 1049, 1031), 3)])  # split across sides
@example(terms=[])
@pa_kernel_censuses
def test_exact_product_matches_left_to_right(small_primes, terms):
    """The merged product equals the left-to-right product, in lowest terms.

    ``reduced`` divides the primes below 1024 out of every value first;
    ``refined`` divides out none, so refining across the two sides alone
    has to make them coprime.
    """
    with mock.patch.object(indices, "_SMALL_PRIMES", small_primes):
        got = folded(terms, "product")
    want = reference.product_fold(terms)
    assert type(got) is F and got == want, (terms, got, want)
    assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1, (terms, got)


def test_product_trees_past_cap_refused(monkeypatch):
    # 2**c has c + 1 bits: sides of 100 bits are built, 101 are refused.
    monkeypatch.setattr(exact, "POWER_BITS_MAX", 100)
    assert folded([(2, 60), (F(1, 4), 20)], "product") == F(2**60, 2**40)
    for terms in ([(2, 60), (4, 21)], [(F(1, 2), 101)], [(F(3, 4), 51)]):
        with pytest.raises(UnsupportedEvaluation):
            folded(terms, "product")
    # A zero term makes the product 0 before any side is sized.
    assert folded([(0, 1), (2, 10**6)], "product") == 0


# --- value-form products as powers of one product -----------------------------
#
# For every (source, variant), the identity, hyper, inverse and integral
# general products are P**e with P the identity product: the product of
# (k**e)**c over the classes is (the product of k**c)**e.


def product_siblings(source, variant):
    """(descriptor, a, e) of each value-form product whose per-class term is k**e."""
    def desc(transform):
        return Descriptor(source, variant, transform, "product", "value")
    return ([(desc("identity"), None, 1), (desc("hyper"), None, 2), (desc("inverse"), None, -1)]
            + [(desc("general"), e, e) for e in range(-3, 4)])


@contextmanager
def gcd_operands():
    """The operands of every ``math.gcd`` call made inside the block."""
    calls = []
    gcd = math.gcd
    math.gcd = lambda *args: calls.append(args) or gcd(*args)
    try:
        yield calls
    finally:
        math.gcd = gcd


def multi_digit(calls):
    """The gcd calls with an operand of more than one CPython int digit."""
    return [args for args in calls
            if max(abs(x).bit_length() for x in args) > sys.int_info.bits_per_digit]


@settings(max_examples=50, deadline=None)
@given(graphs(max_n=12))
def test_product_siblings_are_powers_of_the_identity_product(g):
    warm = Graph(g.n, g.edges)
    for source in SOURCES:
        for variant in _KERNELS:
            kernels = [(reference.kernel(variant, *pair), c)
                       for pair, c in edge_census(g, source).items()]
            zero = any(k == 0 for k, _ in kernels)
            cases = [case for case in product_siblings(source, variant)
                     if not (zero and case[2] < 0)]
            # Warm: each sibling before the identity product, so they fill the memo.
            warm_values = {(d, a): evaluate_descriptor(warm, d, a) for d, a, _ in reversed(cases)}
            identity = evaluate_descriptor(Graph(g.n, g.edges), *cases[0][:2])
            for d, a, e in cases:
                context = (d.name, a, g.edges)
                cold = evaluate_descriptor(Graph(g.n, g.edges), d, a)
                assert type(cold) is F and cold == warm_values[d, a], context
                assert cold == identity**e, context
                assert cold == reference.product_fold([(F(k) ** e, c) for k, c in kernels]), context
            # With the identity product kept, no sibling reduces a big Fraction.
            with gcd_operands() as calls:
                for d, a, _ in cases[1:]:
                    evaluate_descriptor(warm, d, a)
            assert not multi_digit(calls), (source, variant, multi_digit(calls)[:3])


def test_gcd_recorder_sees_the_identity_product_reduced():
    """The recorder above would catch a sibling reduced as a big Fraction is.

    The control is one explicit reduction of a big Fraction, as a large
    identity product made before its numerator and denominator were built
    coprime (``test_cold_products_reduce_nothing_longer_than_a_term``).
    """
    big = 996005996001
    with gcd_operands() as calls:
        assert F(big * 7, big * 3) == F(7, 3)
    assert multi_digit(calls) == [(big * 7, big * 3)]
    g = generate_family("wheel", 4)
    assert evaluate(g, "MRL1") == big
    with gcd_operands() as calls:
        siblings = [evaluate(g, "MHRL1"), evaluate(g, "MGRL1", 3), evaluate(g, "MIRL1")]
    assert not multi_digit(calls)
    assert siblings == [big**2, big**3, F(1, big)]


@pytest.mark.parametrize("family", [("wheel", 4), ("star", 5)], ids=["wheel4", "star5"])
@pytest.mark.parametrize("name", ["MRL1", "MRRL1", "MNRL1", "MRLKV1", "MIRL1"])
def test_cold_int_products_make_no_gcd(family, name):
    """A cold product of int kernels makes no gcd at all, small as it is.

    Its denominator side is 1, so its Fraction is made coprime as built,
    and the inverse is a power of it.
    """
    g = generate_family(*family)
    with gcd_operands() as calls:
        evaluate(g, name)
    assert calls == []


def test_cold_products_reduce_nothing_longer_than_a_term():
    """A cold product makes no gcd with an operand longer than its longest term part.

    The sum name builds each kernel entry first, with its own Fraction
    arithmetic, so only the product fold's gcds are recorded.  On the
    G(2000, 10**4) the temperature and Banhatti products have about 400
    distinct values and 3.6e5 bits; reducing them with one final gcd had
    two operands of that size.
    """
    graphs = {"wheel(4)": generate_family("wheel", 4),
              "sunflower(5)": generate_family("sunflower", 5),
              "regular(12, 3)": generate_family("regular", 12, 3),
              "PA(300, 3)": preferential_attachment(300, 3),
              "G(2000, 10**4)": random_graph(5, 2000, 10**4)}
    names = ["MRL1"] + [f"M{stem}{variant}" for stem in ("TRL", "BRL") for variant in _KERNELS]
    wide = []
    for label, g in graphs.items():
        for name in names:
            d = lookup(name)[0]
            longest = max(max(abs(k.numerator).bit_length(), k.denominator.bit_length())
                          for k in (_KERNELS[d.variant](*pair) for pair in edge_census(g, d.source)))
            cold = Graph(g.n, g.edges)
            evaluate(cold, name[1:])
            with gcd_operands() as calls:
                evaluate(cold, name)
            widest = max((abs(x).bit_length() for args in calls for x in args), default=0)
            if widest > longest:
                wide.append((label, name, widest, longest))
    assert not wide, wide
