"""Exact scalars, sparse exponent polynomials, and their text.

Index values are exact rationals.  ``Rat`` is ``fractions.Fraction``, which
already keeps numerator/denominator reduced with a positive denominator and
grows without overflow (Python integers are arbitrary precision), so the
scalar layer is thin wrappers plus the power helpers the index transforms
need.  ``RatLike`` is what those helpers accept, ``Rat | int``; it is built
with ``|`` rather than ``typing.Union`` so that importing the package never
loads ``typing``.

``ExpPoly`` is the polynomial form of an index: a sparse sum of terms
``coeff * x^exponent`` with integer coefficients and *rational* exponents
(reciprocal-kernel exponents such as 48/(n-2)^2 are not integers).  An
integral exponent may be stored as an ``int``; it hashes and compares equal
to the ``Fraction`` of the same value, so the two are one key.  A polynomial
holds its terms as two tuples, exponents and coefficients, rather than a
dict: a 10^5-term one holds 1.53 MB by tracemalloc, where the dict held
5.00 MB.  ``terms()`` hands out the canonical order as a ``pairs.Pairs``.
Values are immutable once built and safe to share between threads.

``render_value`` writes an index value as text; every int in it goes through
``render_int``, which writes an int of any size in subquadratic time.
"""

from __future__ import annotations

import decimal
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import mul

from .errors import DivisionByZero, InvalidRational, UnsupportedEvaluation
from .pairs import Pairs

Rat = Fraction

RatLike = Rat | int

# A general power whose result is certain to pass this many bits is refused
# before it is built.  It sits far above every value the tests and the
# benchmark build (8.6 M bits at most); building a power at the cap takes
# about 40 s with CPython 3.11 on one core.
POWER_BITS_MAX = 1 << 26

# render_int leaves an int of at most this many bits to str(), and splits a
# larger one down to pieces of this size.  Such an int has at most 617
# digits, under the lowest int-to-text digit limit a Python interpreter
# allows (640, sys.int_info.str_digits_check_threshold), so no output
# depends on that limit.
STR_BITS_MAX = 2048


# from_coprime(num, den) is Fraction(num, den) for coprime ints num and
# den > 0, built without the gcd that Fraction(num, den) spends reducing
# them.  It is a private entry point of ``fractions``; on a Python that has
# neither known form of it, it is plain Fraction, which is slower but right.
if hasattr(Fraction, "_from_coprime_ints"):  # CPython 3.12+
    from_coprime = Fraction._from_coprime_ints
else:
    try:
        Fraction(1, 1, _normalize=False)  # CPython 3.10 and 3.11

        def from_coprime(num: int, den: int) -> Rat:
            return Fraction(num, den, _normalize=False)
    except TypeError:
        from_coprime = Fraction


def rat(num, den=1) -> Rat:
    """Build a reduced rational, raising DivisionByZero on a zero denominator."""
    try:
        return Fraction(num, den)
    except ZeroDivisionError as exc:
        raise DivisionByZero(f"rational {num}/{den}") from exc


def parse_rat(text: str) -> Rat:
    """Parse ``num`` or ``num/den``; raises InvalidRational or DivisionByZero."""
    num, slash, den = text.partition("/")
    try:
        return rat(int(num), int(den) if slash else 1)
    except ValueError as exc:  # int() rejects it, e.g. past its digit limit
        raise InvalidRational(f"not a rational: {exc}") from exc


def rat_pow(base: RatLike, k: int) -> Rat:
    """Exact integer power of a rational; 0 to a negative power is an error."""
    if k < 0 and base == 0:
        raise DivisionByZero("0 raised to a negative power")
    return Fraction(base) ** k


def refuse_past_cap(bits: int) -> None:
    """Raise UnsupportedEvaluation if an exact result of ``bits`` bits is past POWER_BITS_MAX."""
    if bits > POWER_BITS_MAX:
        raise UnsupportedEvaluation(f"power would pass the limit of {POWER_BITS_MAX} bits")


def render_int(n: int) -> str:
    """Decimal text of an int of any size, equal to ``str(n)`` without its digit limit.

    ``str()`` is quadratic in the size of the int on Python 3.11, and it
    refuses an int past the interpreter's digit limit.  A larger int is split
    into binary halves, recursively, and rebuilt as an integral ``Decimal``,
    whose multiplications libmpdec does with a number-theoretic transform;
    the text is the ``str()`` of that ``Decimal`` (CPython 3.12+ does the
    same in ``Lib/_pylong.py``; Brent and Zimmermann, *Modern Computer
    Arithmetic*, section 1.7).  Every step is exact: ``Inexact`` is trapped.
    """
    if n.bit_length() <= STR_BITS_MAX:
        return str(n)
    powers = {}

    def pow2(w: int) -> decimal.Decimal:  # Decimal(2 ** w), each w built once
        if w not in powers:
            if w <= STR_BITS_MAX:
                powers[w] = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                powers[w] = powers[w - 1] * 2
            else:
                powers[w] = pow2(w >> 1) * pow2(w - (w >> 1))
        return powers[w]

    def build(n: int, w: int) -> decimal.Decimal:  # 0 <= n < 2 ** w
        if w <= STR_BITS_MAX:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return build(n - (hi << half), half) + build(hi, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        text = str(build(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def check_power(base: RatLike, k: int) -> None:
    """Refuse ``base ** k`` before it is built if it is certain to pass POWER_BITS_MAX bits.

    The estimate, |k| times the floor of log2 of the base's larger part
    (numerator or denominator), never exceeds the true size; a power of 0, 1
    or -1 is never refused.
    """
    if abs(k) > 1:
        larger = max(abs(base.numerator), base.denominator)
        refuse_past_cap(abs(k) * (larger.bit_length() - 1))


def general_pow(base: RatLike, a: RatLike) -> Rat | float:
    """``base ** a`` for a rational exponent.

    Integral ``a`` stays exact; a non-integer exponent leaves the rationals,
    so the result is a float (documented 1e-9 relative tolerance) and the
    base must be positive.  An integral power is refused by ``check_power``
    before it is built.  An int power of a reduced Fraction is reduced
    already, so ``Fraction.__pow__`` builds it without a ``gcd``.
    """
    a = Fraction(a)
    if a.denominator == 1:
        check_power(base, a.numerator)
        return rat_pow(base, a.numerator)
    if base < 0:
        raise UnsupportedEvaluation(f"negative base {base} with non-integer exponent {a}")
    if base == 0:
        if a < 0:
            raise DivisionByZero("0 raised to a negative power")
        return Fraction(0)
    try:
        return float(base) ** float(a)
    except OverflowError as exc:
        raise UnsupportedEvaluation(f"power {a} overflows a float") from exc


def exact_sqrt(value: RatLike):
    """Return the exact rational square root of ``value``, or None if irrational."""
    value = Fraction(value)
    if value < 0:
        raise UnsupportedEvaluation(f"square root of negative value {value}")
    num, den = value.numerator, value.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def sqrt_sum(radicands: Iterable[tuple[RatLike, int]]) -> Rat | float:
    """Sum of ``count`` square roots of each (radicand, count) pair.

    Exact when every radicand is a perfect square (e.g. regular graphs, where
    every radicand collapses); otherwise ``math.fsum`` over every repeated
    root, which is correctly rounded and so independent of the grouping.
    """
    exact_total = Fraction(0)
    items = [(Fraction(r), c) for r, c in radicands]
    for r, c in items:
        root = exact_sqrt(r)
        if root is None:
            return math.fsum(s for r, c in items for s in repeat(math.sqrt(r), c))
        exact_total += c * root
    return exact_total


class ExpPoly:
    """Sparse polynomial in one variable with rational exponents.

    The terms are held as two tuples, ``_exps`` and ``_coeffs``: term i is
    ``_coeffs[i] * x^_exps[i]``.  Exponents are unique and zero coefficients
    are never stored, so a polynomial is its set of terms: equality and the
    hash do not depend on the order of the columns, which is the order in
    which the constructor first met each exponent.  ``terms()`` hands out
    the canonical (descending) order.  An ``int`` exponent is stored as it
    is and any other as a ``Fraction``; where an int and a Fraction of one
    value meet, the first one met is kept.  Readers use only ``numerator``,
    ``denominator``, comparison and arithmetic, which both types share.
    Instances are immutable.  A float exponent (a non-integer general power)
    and a non-integral coefficient raise UnsupportedEvaluation: exponents
    must stay rational and coefficients integral.

    Two columns cost two pointers per term.  ``RLKV1exp`` on a random graph
    with 2*10^4 vertices and 10^5 edges has 99,981 terms; by tracemalloc the
    polynomial holds 1.53 MB, where a dict from exponent to coefficient held
    5.00 MB.  The columns are not sorted when built: the exponents there are
    ints of up to 169 bits, and sorting them doubled the name's evaluation
    time.
    """

    __slots__ = ("_exps", "_coeffs")

    def __init__(self, terms: Mapping | Iterable | None = None):
        acc: dict[int | Fraction, int] = {}
        if terms:
            pairs = terms.items() if isinstance(terms, Mapping) else terms
            for exponent, coeff in pairs:
                if type(exponent) is not int and type(exponent) is not Fraction:
                    if isinstance(exponent, float):
                        raise UnsupportedEvaluation(
                            "exponential form needs rational exponents; "
                            "non-integer general powers are value-form only"
                        )
                    exponent = Fraction(exponent)
                if type(coeff) is not int:
                    if coeff != int(coeff):
                        raise UnsupportedEvaluation(f"coefficient {coeff} is not an integer")
                    coeff = int(coeff)
                acc[exponent] = acc.get(exponent, 0) + coeff
        exps, coeffs = tuple(acc), tuple(acc.values())
        del acc
        if 0 in coeffs:
            exps, coeffs = tuple(compress(exps, coeffs)), tuple(filter(None, coeffs))
        object.__setattr__(self, "_exps", exps)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("ExpPoly is immutable")

    def __reduce__(self):
        return ExpPoly, (Pairs(self._exps, self._coeffs),)

    @classmethod
    def monomial(cls, exponent: RatLike, coeff: int = 1) -> "ExpPoly":
        return cls({exponent: coeff})

    def terms(self) -> Pairs:
        """The (exponent, coefficient) pairs in canonical order: descending exponent.

        A read-only sequence, sorted on each call and held as two reordered
        columns, with no tuple per term.  Exponents keep their type.
        """
        # Each column is sorted on its own, by the exponents: ``sorted`` computes
        # one key per item, in order, so coefficient i is keyed by exponent i.
        # The exponents are unique, so both sorts make one permutation.  An
        # index permutation would cost an int object per term, 2.8 MB at 10^5.
        exps = iter(self._exps)
        coeffs = tuple(sorted(self._coeffs, key=lambda _: next(exps), reverse=True))
        return Pairs(tuple(sorted(self._exps, reverse=True)), coeffs)

    def __len__(self) -> int:
        return len(self._exps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if len(self) != len(other):
            return False
        return dict(zip(self._exps, self._coeffs)) == dict(zip(other._exps, other._coeffs))

    def __hash__(self) -> int:
        return hash(frozenset(zip(self._exps, self._coeffs)))

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return ExpPoly(chain(zip(self._exps, self._coeffs), zip(other._exps, other._coeffs)))

    def __mul__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        # Product of monomials adds exponents: x^e1 * x^e2 = x^(e1+e2).
        return ExpPoly((e1 + e2, c1 * c2)
                       for e1, c1 in zip(self._exps, self._coeffs)
                       for e2, c2 in zip(other._exps, other._coeffs))

    def evaluate(self, x: RatLike) -> Rat:
        """Exact evaluation at a rational point.

        Non-integer exponents only support x = 1 (where every term is its
        coefficient); negative exponents require x != 0.
        """
        x = Fraction(x)
        if x == 1:
            return Fraction(sum(self._coeffs))
        total = Fraction(0)
        for e, c in zip(self._exps, self._coeffs):
            if e.denominator != 1:
                raise UnsupportedEvaluation(
                    f"non-integer exponent {e} is only evaluable at x=1"
                )
            if e < 0 and x <= 0:
                raise UnsupportedEvaluation(
                    f"negative exponent {e} requires x > 0, got {x}"
                )
            total += c * rat_pow(x, e.numerator)
        return total

    def derivative_at_one(self) -> Rat:
        """d/dx at x=1: sum of coefficient * exponent (exact)."""
        return sum(map(mul, self._coeffs, self._exps), Fraction(0))

    def render(self) -> str:
        """Canonical text form, bit-exact for golden files.

        Terms descend by exponent as ``<coeff>*x^<num>/<den>`` with ``/den``
        omitted when the exponent is an integer, joined by `` + ``.  Every int
        is written by ``render_int``, so terms of any size render.
        """
        if not self._exps:
            return "0"
        parts = []
        for e, c in self.terms():
            suffix = render_int(e.numerator)
            if e.denominator != 1:
                suffix += "/" + render_int(e.denominator)
            parts.append(f"{render_int(c)}*x^{suffix}")
        return " + ".join(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"ExpPoly({self.render()!r})"


def render_value(value) -> str:
    """Canonical text of an index value: ``num/den``, a polynomial, or ``~float``."""
    if isinstance(value, ExpPoly):
        return value.render()
    if isinstance(value, float):
        return f"~{value!r}"
    value = Fraction(value)
    return f"{render_int(value.numerator)}/{render_int(value.denominator)}"
