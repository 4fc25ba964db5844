"""The index catalog: descriptor algebra, name registry, and evaluation.

A catalog index is addressed by five coordinates:

  source       which functional supplies endpoint values (7 choices)
  variant      per-edge kernel over endpoint values a, b:
                 1: a^2 + b^2 + a*b
                 2: a^2 + b^2 - a*b
                 3: |a-b| + a*b (= a - b + a*b with a the larger endpoint value)
                 4: |a-b| * a*b
  transform    identity, hyper (square), inverse (reciprocal), general (power a)
  aggregation  sum or product over edges
  form         scalar value, or polynomial with one x^kernel term per edge

giving 7 * 4 * 4 * 2 * 2 = 448 registry names such as RL1, HBRL2, MIRRL1,
RLKV3exp.  Orientation of variant 3 is canonical larger-endpoint-first so the
index is well defined on undirected edges.  Fourteen standalone indices
(degree exponentials, closeness and maximum-deviation families, Heronian)
live beside the catalog under their own names, as rows of one table.  Every
index is one fold over the edge census (``functionals.edge_census``).

Evaluation is pure: exact rationals throughout, with floats only where the
mathematics leaves the rationals (non-integer general powers, square roots
with non-square radicands).
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import islice, product, repeat, starmap

from .errors import InverseUndefined, UnknownIndexName, UnsupportedEvaluation
from .exact import (
    ExpPoly, Rat, check_power, from_coprime, general_pow, parse_rat, refuse_past_cap, sqrt_sum,
)
from .functionals import edge_census, first_edge_of_class
from .graph import Graph

_SOURCE_STEM = {
    "plain": "RL",
    "banhatti": "BRL",
    "revan": "RRL",
    "domination": "DRL",
    "temperature": "TRL",
    "kv": "RLKV",
    "nbd": "NRL",
}
SOURCES = tuple(_SOURCE_STEM)

# variant -> per-edge kernel; each is symmetric in the endpoint values, so it
# is one value per sorted census pair.
_KERNELS = {
    1: lambda a, b: a * a + b * b + a * b,
    2: lambda a, b: a * a + b * b - a * b,
    3: lambda a, b: abs(a - b) + a * b,
    4: lambda a, b: abs(a - b) * a * b,
}

# transform -> (name prefix, the int e with per-class term k**e for the
# kernel k, or None where e is the general power a).
_TRANSFORMS = {
    "identity": ("", 1),
    "hyper": ("H", 2),
    "inverse": ("I", -1),
    "general": ("G", None),
}
TRANSFORMS = tuple(_TRANSFORMS)
AGGREGATIONS = ("sum", "product")
FORMS = ("value", "exponential")


class Descriptor(namedtuple("Descriptor", "source variant transform aggregation form")):
    """Coordinates of one catalog index: an immutable, validated record.

    A named tuple, so it hashes as its field tuple and compares equal to a
    plain tuple of the same fields.
    """

    __slots__ = ()

    def __new__(cls, source: str, variant: int, transform: str, aggregation: str, form: str):
        if source not in _SOURCE_STEM:
            raise ValueError(f"bad source {source!r}")
        if variant not in _KERNELS:
            raise ValueError(f"bad variant {variant!r}")
        if transform not in _TRANSFORMS:
            raise ValueError(f"bad transform {transform!r}")
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"bad aggregation {aggregation!r}")
        if form not in FORMS:
            raise ValueError(f"bad form {form!r}")
        return super().__new__(cls, source, variant, transform, aggregation, form)

    @property
    def name(self) -> str:
        return (
            ("M" if self.aggregation == "product" else "")
            + _TRANSFORMS[self.transform][0]
            + _SOURCE_STEM[self.source]
            + str(self.variant)
            + ("exp" if self.form == "exponential" else "")
        )


def _tree(op, items: list, identity):
    """Combine ``items`` pairwise, level by level, so that operands grow together."""
    while len(items) > 1:
        odd = items[-1:] if len(items) % 2 else []
        items = list(map(op, items[::2], items[1::2])) + odd
    return items[0] if items else identity


# The primes below 1024, by a sieve: kernel values share mostly these, so
# ``_coprime_base`` divides them out of every value first.
_SMALL_PRIMES = sorted(set(range(2, 1024)).difference(*(range(p * p, 1024, p) for p in range(2, 32))))


def _coprime_base(exponents: dict[int, int]) -> dict[int, int]:
    """Rewrite the product of b**e over ``exponents`` so that its two sides are coprime.

    Every prime below 1024 is divided out of each value into its own exponent.
    A cofactor left that shares a factor g with a base b of the opposite sign
    is split as x**e * b**f = g**(e+f) * (x/g)**e * (b/g)**f, and one equal
    to a base of its own sign adds to that exponent; bases of one sign need
    not be coprime.  Each split divides the product of the values pending and
    kept by g > 1, so the loop ends.  A small prime may keep exponent 0.
    """
    primes: dict[int, int] = {}
    pending = []
    for x, e in exponents.items():
        for p in _SMALL_PRIMES:
            while x % p == 0:
                x //= p
                primes[p] = primes.get(p, 0) + e
        pending.append((x, e))
    sides = {True: {}, False: {}}  # by the sign of the exponent: True for > 0
    while pending:
        x, e = pending.pop()
        if x == 1 or e == 0:
            continue
        other = sides[e < 0]
        for b in other:
            g = math.gcd(x, b)
            if g > 1:
                f = other.pop(b)
                pending += [(g, e + f), (x // g, e), (b // g, f)]
                break
        else:
            same = sides[e > 0]
            same[x] = same.get(x, 0) + e
    return {**primes, **sides[True], **sides[False]}


def _power_product(powers: list[tuple[int, int]]) -> int:
    """The product of b**e over ``powers``, by the bits of the exponents.

    From the top bit j down, R <- R*R * Q_j, where Q_j is the tree product of
    the bases whose exponent has bit j set (Brent and Zimmermann, *Modern
    Computer Arithmetic*, 1.7 and 2.6).  With every exponent 1 this is one tree.
    """
    result = 1
    for j in reversed(range(max((e for _, e in powers), default=0).bit_length())):
        result = result * result * _tree(operator.mul, [b for b, e in powers if e >> j & 1], 1)
    return result


def _sides(exponents: dict[int, int]) -> tuple[list, list]:
    """The (base, exponent) pairs of the positive exponents, and of the negated negative ones."""
    return ([(b, e) for b, e in exponents.items() if e > 0],
            [(b, -e) for b, e in exponents.items() if e < 0])


def _exact_product(terms: list) -> Fraction:
    """The product of t**c over the (int or Fraction t, count c) pairs ``terms``.

    0 at once if a term is.  Refused (UnsupportedEvaluation) before anything
    is multiplied if the numerators' or the denominators' bits, estimated from
    the unreduced terms, are certain to pass ``exact.POWER_BITS_MAX``.

    Equal values merge into one signed exponent, +c for a numerator and -c
    for a denominator; the product is negative when the counts of the
    negative terms add up to an odd number.
    Where both sides have bases, ``_coprime_base`` makes them coprime.  Each
    side is then built by ``_power_product``, and the Fraction is made
    without a ``gcd``.
    """
    if not all(t for t, _ in terms):
        return Fraction(0)
    bits = max(sum(c * (abs(t.numerator).bit_length() - 1) for t, c in terms),
               sum(c * (t.denominator.bit_length() - 1) for t, c in terms))
    refuse_past_cap(bits)
    exponents: dict[int, int] = {}
    odd = 0
    for t, c in terms:
        num = t.numerator
        if num < 0:
            num, odd = -num, odd ^ c & 1
        exponents[num] = exponents.get(num, 0) + c
        exponents[t.denominator] = exponents.get(t.denominator, 0) - c
    exponents.pop(1, None)
    sides = _sides(exponents)
    if all(sides):
        sides = _sides(_coprime_base(exponents))
    num, den = map(_power_product, sides)
    if odd:
        num = -num
    return from_coprime(num, den)


def _fold(counts, terms, aggregation: str, form: str):
    """Fold per-class terms over the class counts of an edge census; every index is one such fold.

    ``terms`` gives each class's term t, in census order, beside its count c
    in ``counts``.  A class contributes c*t to a sum, t^c to a product and
    c*x^t to a polynomial.  A product with no float term is
    ``_exact_product``; with a float term it multiplies the powers left to
    right.  Sums add left to right.
    """
    if form == "exponential" and aggregation == "sum":
        return ExpPoly(zip(terms, counts))
    if form == "value" and aggregation == "product":
        terms = list(zip(terms, counts))
        if not any(isinstance(t, float) for t, _ in terms):
            return _exact_product(terms)
        # A float power raises OverflowError where repeated products reach inf.
        powers = (math.prod(repeat(t, c)) if isinstance(t, float) else t**c for t, c in terms)
        return math.prod(powers, start=Fraction(1))
    # Integer terms add as ints, left to right (sum() would take its
    # compensated float path from Python 3.12); Fraction(0) keeps the type.
    total = Fraction(0) + reduce(operator.add, map(operator.mul, counts, terms), 0)
    return total if form == "value" else ExpPoly.monomial(total)


class _Kernel:
    """What one kernel derives on one graph, shared by the 16 names that read it.

    Kept in the graph's memo under (source, variant), whether or not the
    census itself is kept.  ``values`` holds the kernel of each class and
    ``counts`` the class's edge count, both in census order, so the kernel
    is evaluated once per class and graph and a census past the memo's
    bound is built once per entry, not once per name.  ``zero`` is the first
    edge, in edge order, whose kernel is 0, or None: the first edge of the
    first zero class in census order, named from the census the entry is
    built from.  ``powers`` is None until a product asks for P, the exact
    product of the kernel; then it maps e to P**e, with P = ``powers[1]``.
    """

    __slots__ = ("values", "counts", "zero", "powers")

    def __init__(self, g: Graph, source: str, variant: int):
        census = edge_census(g, source)
        self.values = tuple(starmap(_KERNELS[variant], census))
        self.counts = tuple(census.values())
        self.zero = None
        if 0 in self.values:
            pair = next(islice(census, self.values.index(0), None))
            self.zero = first_edge_of_class(g, source, pair)
        self.powers = None


def evaluate_descriptor(g: Graph, d: Descriptor, a: Rat | None = None):
    """Fold the kernel's power k**e over the edge census of ``g``.

    Returns an exact Fraction (value form), an ExpPoly (exponential form), or
    a float when a non-integer general power forces one.

    Each name resolves to one exponent e: 1, 2 or -1 for identity, hyper and
    inverse, and a for general where a is integral; a non-integral a leaves
    e None, the only path to ``exact.general_pow`` and floats.  The 16 names
    of a (source, variant) read one ``_Kernel`` entry in the graph's memo,
    which holds the kernel's class values and counts whether or not the
    census is kept, so the census is built and the kernel evaluated once per
    class and graph.  A negative power of a zero kernel raises
    ``InverseUndefined`` on the entry's first zero edge.

    A value-form product with an int e is P**e, since the product of
    (k**e)**c is (product of k**c)**e.  P and each power asked for are kept
    in the entry, so ``MGRL1(a=2)`` is the object that ``MHRL1`` built; a
    refusal is not kept.  An int power of a reduced Fraction is reduced
    already, and ``Fraction.__pow__`` builds it without a ``gcd``.  Any other
    name folds k**e per class, an int for an int k and e >= 0.  A general
    name sends each class's k**e through ``exact.check_power`` first, and a
    product sends P**e through it before P**e is built or read, so a power
    the per-class fold would refuse is refused here too, even where P is 0.
    """
    e = _TRANSFORMS[d.transform][1]
    if d.transform == "general":
        if a is None:
            raise UnsupportedEvaluation(
                f"{d.name} needs its power parameter, e.g. {d.name}(a=3)"
            )
        a = Fraction(a)
        if a.denominator == 1:
            e = a.numerator
    key = (d.source, d.variant)
    entry = g._memo.get(key)
    if entry is None:
        entry = g._memo[key] = _Kernel(g, d.source, d.variant)
    if entry.zero is not None and (a if e is None else e) < 0:
        raise InverseUndefined(entry.zero)
    if e is None:
        return _fold(entry.counts, (general_pow(Fraction(k), a) for k in entry.values),
                     d.aggregation, d.form)
    if d.transform == "general":
        for k in entry.values:
            check_power(k, e)
    if d.aggregation == "product" and d.form == "value":
        if entry.powers is None:
            entry.powers = {1: _fold(entry.counts, entry.values, "product", "value")}
        powers = entry.powers
        check_power(powers[1], e)
        if e not in powers:
            powers[e] = powers[1] ** e
        return powers[e]
    terms = entry.values
    if e != 1:
        terms = (k**e for k in (terms if e >= 0 else map(Fraction, terms)))
    return _fold(entry.counts, terms, d.aggregation, d.form)


# --- standalone indices -------------------------------------------------------
#
# name -> (source, per-edge rational part, per-edge radicand, basis note).  The
# index is the sum over edges of the rational part plus the sum of square
# roots of the radicands.  RL5 takes the smaller endpoint degree as base and
# the larger as exponent, so the undirected index is well defined; HeronianRL
# is a + sqrt(ab) + b as published (no 1/3).
_STANDALONE = {
    "RL5": ("plain", lambda a, b: min(a, b) ** max(a, b), None, "degree power d_min^d_max"),
    "RL6": ("plain", lambda a, b: a**b + b**a, None, "symmetric degree powers a^b + b^a"),
    "RL7": ("closeness", lambda a, b: a + b, None, "closeness sum"),
    "RL8": ("closeness", lambda a, b: a * b, None, "closeness product"),
    "RL9": ("closeness", lambda a, b: a * a + b * b, None, "closeness squares"),
    "RL10": ("closeness", None, lambda a, b: a * a + b * b, "sqrt of closeness squares"),
    "RL11": ("closeness", None, lambda a, b: a + b, "sqrt of closeness sum"),
    "RL12": ("closeness", lambda a, b: abs(a - b), None, "closeness deviation"),
    "RL13": ("cl", lambda a, b: a + b, None, "max-deviation degree sum"),
    "RL14": ("cl", lambda a, b: a * b, None, "max-deviation degree product"),
    "RL15": ("cl", lambda a, b: a * a + b * b, None, "max-deviation degree squares"),
    "RL16": ("cl", None, lambda a, b: a * a + b * b, "sqrt of max-deviation squares"),
    "RL17": ("cl", None, lambda a, b: a + b, "sqrt of max-deviation sum"),
    "HeronianRL": ("plain", lambda a, b: a + b, lambda a, b: a * b, "degrees a + sqrt(ab) + b"),
}

SPECIAL_NAMES = tuple(_STANDALONE)


def memo_holds(g: Graph, value) -> bool:
    """True when ``value`` is a product power kept in ``g``'s memo: it lives as long as ``g``."""
    return any(p is value for entry in g._memo.values() if isinstance(entry, _Kernel)
               for p in (entry.powers or {}).values())


def _evaluate_standalone(g: Graph, name: str):
    source, rational, radicand, _ = _STANDALONE[name]
    census = edge_census(g, source)
    linear = Fraction(0) if rational is None else _fold(
        census.values(), starmap(rational, census), "sum", "value")
    if radicand is None:
        return linear
    # Fraction + float is float(linear) + roots.
    return linear + sqrt_sum((radicand(a, b), c) for (a, b), c in census.items())


# --- names ------------------------------------------------------------------

_SPECIAL_ALIASES = {
    "C1": "RL7",
    "C2": "RL8",
    "FC": "RL9",
    "CSO": "RL10",
    "CN": "RL11",
    "AC": "RL12",
    "FRL": "RL15",
    "SCL": "RL16",
    "NCL": "RL17",
    "HRL": "HeronianRL",
    "HERONIAN": "HeronianRL",
}

# Upper-cased name -> Descriptor (in canonical order), standalone name or alias.
_NAMES: dict[str, Descriptor | str] = {
    d.name.upper(): d
    for d in starmap(Descriptor, product(SOURCES, _KERNELS, TRANSFORMS, AGGREGATIONS, FORMS))
}
_NAMES.update({name.upper(): name for name in SPECIAL_NAMES})
_NAMES.update(_SPECIAL_ALIASES)

_PARAM_RE = re.compile(r"^(?P<base>[A-Z0-9]+?)\(A=(?P<a>-?\d+(?:/\d+)?)\)$")


def registry_names() -> list[str]:
    """All 448 catalog names in canonical order."""
    return [d.name for d in _NAMES.values() if isinstance(d, Descriptor)]


def all_index_names() -> list[str]:
    return registry_names() + list(SPECIAL_NAMES)


def lookup(name: str) -> tuple[Descriptor | str, Rat | None]:
    """Resolve a registry name (case-insensitive, underscores ignored).

    Returns (Descriptor, a) for catalog entries, where ``a`` is the general
    power parameter if the name carried one (``GRL1(a=3)`` style), or
    (special_name, a) for the standalone indices, which ignore ``a``.
    """
    cleaned = re.sub(r"[\s_]+", "", name).upper()
    a_param: Rat | None = None
    with_param = _PARAM_RE.match(cleaned)
    if with_param:
        cleaned = with_param.group("base")
        a_param = parse_rat(with_param.group("a"))
    resolved = _NAMES.get(cleaned)
    if resolved is None:
        import difflib  # error path only: keeps difflib off the import path

        candidates = [n.upper() for n in all_index_names()]
        close = difflib.get_close_matches(cleaned, candidates, n=1)
        raise UnknownIndexName(name, suggestion=close[0] if close else None)
    return resolved, a_param


def evaluate(g: Graph, index: str | Descriptor, a: Rat | None = None):
    """Evaluate any registered index (catalog or standalone) on ``g``.

    ``a`` supplies the general-transform power when the name itself does not
    carry one.  Pure function; safe to call concurrently on a shared graph:
    two threads filling the graph's memo can only store equal values.
    """
    if not isinstance(index, Descriptor):
        index, a_inline = lookup(index)
        a = a if a_inline is None else a_inline
    if isinstance(index, Descriptor):
        return evaluate_descriptor(g, index, a)
    return _evaluate_standalone(g, index)


def describe(name: str) -> tuple[str, str, str, str, str, str]:
    """(name, source, variant, transform, aggregation, form) row for listings."""
    resolved, _ = lookup(name)
    if isinstance(resolved, Descriptor):
        return (
            resolved.name,
            resolved.source,
            str(resolved.variant),
            resolved.transform,
            resolved.aggregation,
            resolved.form,
        )
    return (resolved, _STANDALONE[resolved][3], "-", "-", "sum", "value")
