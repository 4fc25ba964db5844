"""Closed-form oracles for the graph families and differential verification.

Each oracle entry transcribes one published closed form exactly as displayed,
including absolute values and any typos: the point of the verifier is to
report where a displayed formula disagrees with direct evaluation of the
definitions, so formulas are never silently corrected.  That display text is
the only copy of a formula.  `verify` reads it on each evaluation (never at
import) with Python's expression parser, after three rewrites: juxtaposition
becomes ``*``, ``^`` becomes ``**`` (so it groups right to left), and each bar
of ``|...|`` becomes ``abs(`` or ``)``; a trailing ``[stated with side
condition ...]`` note is dropped.  Decimal integers without leading zeros, the
one-letter parameters, ``x`` (whose powers build ``ExpPoly`` monomials),
``+ - * / ^`` and bars are read; anything else is a ValueError naming the
oracle.  Ids ending in ``exp`` give an ``ExpPoly`` (constants lifted to
``x^0``), all others a ``Fraction``.  A verdict is CONFIRMED only on exact
equality (rationals compared exactly, polynomials term by term), with no tolerance.

Verdicts can legitimately differ across parameter points (coincidental
equalities exist, e.g. NRL1 on the 3-cycle), so the shipped baseline stores
a default verdict per oracle plus per-point exceptions.
"""

from __future__ import annotations

import ast
import json
import os
import re
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .errors import BaselineFileError, GraphTooLarge, ParamsOutOfStatedRange, TopoidxError
from .exact import ExpPoly, render_value
from .graph import generate_family
from .indices import evaluate

CONFIRMED = "CONFIRMED"
DISCREPANT = "DISCREPANT"

# Stated range text -> the check it states.  "r >= 2" also needs an
# r-regular graph on n vertices to exist.
_RANGES = {
    "n >= 2": lambda n: n >= 2,
    "n >= 3": lambda n: n >= 3,
    "r >= 2": lambda n, r: 2 <= r < n and (n * r) % 2 == 0,
    "1 <= m <= n, n >= 2": lambda m, n: 1 <= m <= n and n >= 2,
    "2 <= m <= n": lambda m, n: 2 <= m <= n,
    "p, q >= 1": lambda p, q: p >= 1 and q >= 1,
    "n >= 3, m >= 3": lambda n, m: n >= 3 and m >= 3,
}

_X = ExpPoly.monomial(1)
_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _lift(value) -> ExpPoly:
    """A scalar as the constant polynomial ``value*x^0``."""
    return value if isinstance(value, ExpPoly) else ExpPoly([(0, value)])


def _apply(op: str, a, b):
    if op == "^":
        return ExpPoly.monomial(b) if a is _X else a ** b
    if isinstance(a, ExpPoly) or isinstance(b, ExpPoly):
        a, b = _lift(a), _lift(b)  # ExpPoly defines only + and *
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return Fraction(a) / b if op == "/" else a * b


def _python_text(display: str) -> str:
    """The display as Python text.  Inside ``|...|`` a bar after a factor closes
    it, any other bar opens one; space-joined tokens keep ``**`` an error."""
    out, bars, after_factor = [], 0, False
    display = re.sub(r"\s*\[stated with side condition [^]]*\]$", "", display)
    for token in re.findall(r"\d+|\S", display):
        if token == "|" and bars and after_factor:
            token, bars = ")", bars - 1
        elif token in ("|", "(") or token.isalnum():
            if after_factor:
                out.append("*")  # juxtaposition multiplies
            if token == "|":
                token, bars = "abs(", bars + 1
        out.append("**" if token == "^" else token)
        after_factor = token == ")" or token.isalnum()
    return " ".join(out)


def _display_value(entry: "OracleEntry", names: dict):
    """The value of one display at one point, walking its parsed Python text."""
    def value(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return _apply(_OPERATORS[type(node.op)], value(node.left), value(node.right))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "abs" and len(node.args) == 1 and not node.keywords):
            return abs(value(node.args[0]))
        raise ValueError(f"cannot evaluate {ast.unparse(node)!r}")

    try:
        text = _python_text(entry.formula_text)
        if not text.isascii():  # the parser reads a math-italic n as n
            raise ValueError("a character outside ASCII")
        return value(ast.parse(text, mode="eval").body)
    except (SyntaxError, ValueError) as exc:
        raise ValueError(f"{entry.id}: {exc.args[0]} in display {entry.formula_text!r}") from None


class OracleEntry(namedtuple("OracleEntry", "id family index formula_text range_text")):
    """One published closed form, addressed as ``<index>/<family>``.

    An immutable record; as a named tuple it hashes as its field tuple.  The
    ``index`` field is the index name and hides ``tuple.index``.
    """

    __slots__ = ()

    def eval(self, **params):
        if not _RANGES[self.range_text](**params):
            raise ParamsOutOfStatedRange(
                f"{self.id} is stated for {self.range_text}, got {params}"
            )
        if self.index.endswith("exp"):
            return _lift(_display_value(self, dict(params, x=_X)))
        return Fraction(_display_value(self, params))


class OracleResult(namedtuple("OracleResult",
                              "oracle_id params oracle_value direct_value verdict")):
    """One (oracle, parameter point) verdict; an immutable record."""

    __slots__ = ()

    @property
    def params_label(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.params)


_ENTRIES: dict[str, OracleEntry] = {}


def _add(family, index, text, range_text):
    oracle_id = f"{index}/{family}"
    _ENTRIES[oracle_id] = OracleEntry(oracle_id, family, index, text, range_text)


# --- plain-degree family -----------------------------------------------------

_add("regular", "RL1", "3nr^3/2", "r >= 2")
_add("regular", "RL2", "nr^3/2", "r >= 2")
_add("regular", "RL3", "nr^3/2", "r >= 2")
_add("regular", "RL4", "0", "r >= 2")

_add("cycle", "RL1", "12n", "n >= 3")
_add("cycle", "RL2", "4n", "n >= 3")
_add("cycle", "RL3", "4n", "n >= 3")
_add("cycle", "RL4", "0", "n >= 3")

_add("complete", "RL1", "3n(n-1)^3/2", "n >= 3")
_add("complete", "RL2", "n(n-1)^3/2", "n >= 3")
_add("complete", "RL3", "n(n-1)^3/2", "n >= 3")
_add("complete", "RL4", "0", "n >= 3")

_add("path", "RL1", "12n-22", "n >= 3")
_add("path", "RL2", "4n-6", "n >= 3")
_add("path", "RL3", "4n-6", "n >= 3")
_add("path", "RL4", "4", "n >= 3")

_add("kmn", "RL1", "mn(m^2+n^2+mn)", "1 <= m <= n, n >= 2")
_add("kmn", "RL2", "mn(m^2+n^2-mn)", "1 <= m <= n, n >= 2")
_add("kmn", "RL3", "mn(m-n+mn)", "1 <= m <= n, n >= 2")
_add("kmn", "RL4", "m^2n^2|m-n|", "1 <= m <= n, n >= 2")

_add("wheel", "RL1", "n(n^2+3n+36)", "n >= 3")
_add("wheel", "RL2", "n(n^2-3n+18)", "n >= 3")
_add("wheel", "RL3", "2n(2n+3)", "n >= 3")
_add("wheel", "RL4", "3n^2|n-3|", "n >= 3")

_add("wheel", "RL1exp", "n(x^27 + x^(n^2+3n+9))", "n >= 3")
_add("wheel", "RL2exp", "n x^9 (x^(n^2-3n) + 1)", "n >= 3")
_add("wheel", "RL3exp", "n(x^9 + x^(4n-3))", "n >= 3")
_add("wheel", "RL4exp", "n(x^(3n|n-3|) + 1)", "n >= 3")

_add("sunflower", "RL1", "n(27n^2+21n+97)", "n >= 3")
_add("sunflower", "RL2", "n(27n^2-21n+49)", "n >= 3")
_add("sunflower", "RL3", "n(25n+17)", "n >= 3")
_add("sunflower", "RL4", "n(12n|3n-4| + 6n|3n-2| + 3n|3n-1| + 16)", "n >= 3")

_add("sunflower", "RL1exp",
     "n(x^48 + x^(9n^2+12n+16) + x^28 + x^(9n^2+6n+4) + x^(9n^2+3n+1))", "n >= 3")
_add("sunflower", "RL2exp",
     "n(x^16 + x^(9n^2-12n+16) + x^12 + x^(9n^2-6n+4) + x^(9n^2-3n+1))", "n >= 3")
_add("sunflower", "RL3exp",
     "n(x^16 + x^(15n-4) + x^6 + x^(9n-2) + x)", "n >= 3")
_add("sunflower", "RL4exp",
     "n(x^16 + x^(12n|3n-4|) + x^(6n|3n-2|) + x^(3n|3n-1|) + 1)", "n >= 3")

# --- Banhatti family ----------------------------------------------------------

_add("regular", "BRL1", "6nr((r-1)/(n-r))^2", "r >= 2")
_add("regular", "BRL2", "2nr((r-1)/(n-r))^2", "r >= 2")
_add("regular", "BRL3", "2nr(r-1)^2/(n-r)^2", "r >= 2")
_add("regular", "BRL4", "2nr((r-1)/(n-r))^2", "r >= 2")

_add("cycle", "BRL1", "12n(1/(n-2))^2", "n >= 3")
_add("cycle", "BRL2", "4n(1/(n-2))^2", "n >= 3")
_add("cycle", "BRL3", "4n(1/(n-2))", "n >= 3")
_add("cycle", "BRL4", "0", "n >= 3")

_add("complete", "BRL1", "6n(n-1)(n-2)^2", "n >= 3")
_add("complete", "BRL2", "2n(n-1)(n-2)^2", "n >= 3")
_add("complete", "BRL3", "2n(n-1)(n-2)^2", "n >= 3")
_add("complete", "BRL4", "0", "n >= 3")

_add("path", "BRL1",
     "(2(n-1)^2 + 2(n-2)^2 + 2(n-1)(n-2) + 12(n-1)^2(n-3)) / ((n-1)^2(n-2)^2)", "n >= 3")
_add("path", "BRL2",
     "(2(n-1)^2 + 2(n-2)^2 - 2(n-1)(n-2) + 4(n-1)^2(n-3)) / ((n-1)^2(n-2)^2)", "n >= 3")
_add("path", "BRL3", "2|n^2-6n+10| / ((n-1)(n-2)^2)", "n >= 3")
_add("path", "BRL4", "4|n| / ((n-1)^2(n-2)^2)", "n >= 3")

_add("kmn", "BRL1", "(m+n-2)^2(m^2+n^2+mn)/(mn)", "1 <= m <= n, n >= 2")
_add("kmn", "BRL2", "(m+n-2)^2(m^2+n^2-mn)/(mn)", "1 <= m <= n, n >= 2")
_add("kmn", "BRL3", "2(m+n-2)(m-1)  [stated with side condition m > n]", "1 <= m <= n, n >= 2")
_add("kmn", "BRL4", "(m+n-2)^4 |m-n| / (mn)  [stated with side condition m > n]",
     "1 <= m <= n, n >= 2")

_add("knn", "BRL1", "12(n-1)^2", "n >= 2")
_add("knn", "BRL2", "(n-1)^2", "n >= 2")
_add("knn", "BRL3", "4(n-1)^2", "n >= 2")
_add("knn", "BRL4", "0", "n >= 2")

_add("k1n", "BRL1", "(n-1)^2(n^2+n+1)/n", "n >= 2")
_add("k1n", "BRL2", "(n-1)^2(n^2+1-n)/n", "n >= 2")
_add("k1n", "BRL3", "2(n-1)^2", "n >= 2")
_add("k1n", "BRL4", "(n-1)^3|1-n|/n", "n >= 2")

_add("wheel", "BRL1", "n((n+1)^2(n^2-3n+3)+48)/(n-2)^2", "n >= 3")
_add("wheel", "BRL2", "n((n+1)^2(n^2-5n+7)+16)/(n-2)^2", "n >= 3")
_add("wheel", "BRL3", "n((n+1)(n-2) - (n+1)(n-2)^2 + (n+1)^2 + 16)/(n-2)^2", "n >= 3")
_add("wheel", "BRL4", "n|n-1|(n+1)^3/(n-2)", "n >= 3")

_add("wheel", "BRL1exp", "n x^(48/(n-2)^2) + n x^((n+1)^2(n^2-3n+3)/(n-2)^2)", "n >= 3")
_add("wheel", "BRL2exp", "n x^(16/(n-2)^2) + n x^((n+1)^2(n^2-5n+7)/(n-2)^2)", "n >= 3")
_add("wheel", "BRL3exp", "n x^(16/(n-2)^2) + n x^(4(n+1)/(n-2))", "n >= 3")
_add("wheel", "BRL4exp", "n + n x^((n+1)^3|n-3|/(n-2)^2)", "n >= 3")

_add("sunflower", "BRL1",
     "12n/(n-1)^2 + n(3n+2)^2((3n-3)^2+(3n+2)(3n-3)+1)/(3n-3)^2"
     " + 16n(1/(3n-1)^2 + 1/(3n-3)^2 + 1/((3n-1)(3n-3)))"
     " + 3n^3(1 + 1/(3n-1)^2 + 1/(3n-1)) + n(3n-1)^2(1/(9n^2) + 1 + 1/(3n))", "n >= 3")
_add("sunflower", "BRL2",
     "4n/(n-1)^2 + n(3n+2)^2((3n-3)^2-(3n+2)(3n-3)+1)/(3n-3)^2"
     " + 16n(1/(3n-1)^2 + 1/(3n-3)^2 - 1/((3n-1)(3n-3)))"
     " + 3n^3(1 + 1/(3n-1)^2 - 1/(3n-1)) + n(3n-1)^2(1/(9n^2) + 1 - 1/(3n))", "n >= 3")
_add("sunflower", "BRL3",
     "4n/(n-1)^2 + 3n^2(3n+2)/(3n-3) + 8n/((3n-1)(3n-3)) + 18n^2/(3n-1)", "n >= 3")
_add("sunflower", "BRL4",
     "4n(3n+2)^2|3n-4|/(3n-3)^2 + 128n/((3n-1)^2(3n-3)^2)"
     " + 27n^4|3n-2|/(3n-1)^2 + n(3n-1)^3|1-3n|/(9n^2)", "n >= 3")

# --- Revan family -------------------------------------------------------------

_add("regular", "RRL1", "3nr^3/2", "r >= 2")
_add("regular", "RRL2", "nr^3/2", "r >= 2")
_add("regular", "RRL3", "nr^3/2", "r >= 2")
_add("regular", "RRL4", "0", "r >= 2")

_add("cycle", "RRL1", "12n", "n >= 3")
_add("cycle", "RRL2", "4n", "n >= 3")
_add("cycle", "RRL3", "4n", "n >= 3")
_add("cycle", "RRL4", "0", "n >= 3")

_add("complete", "RRL1", "3n(n-1)^3/2", "n >= 3")
_add("complete", "RRL2", "n(n-1)^3/2", "n >= 3")
_add("complete", "RRL3", "n(n-1)^3/2", "n >= 3")
_add("complete", "RRL4", "0", "n >= 3")

_add("path", "RRL1", "3n+5", "n >= 3")
_add("path", "RRL2", "n+3", "n >= 3")
_add("path", "RRL3", "n+3", "n >= 3")
_add("path", "RRL4", "4", "n >= 3")

_add("kmn", "RRL1", "mn(m^2+n^2+mn)", "1 <= m <= n, n >= 2")
_add("kmn", "RRL2", "mn(m^2+n^2-mn)", "1 <= m <= n, n >= 2")
_add("kmn", "RRL3", "mn(n-m+mn)", "1 <= m <= n, n >= 2")
_add("kmn", "RRL4", "m^2n^2|n-m|", "1 <= m <= n, n >= 2")

_add("wheel", "RRL1", "n(4n^2+3n+9)", "n >= 3")
_add("wheel", "RRL2", "n(2n^2-3n+9)", "n >= 3")
_add("wheel", "RRL3", "n(n^2+4n-3)", "n >= 3")
_add("wheel", "RRL4", "3n^2|n-3|", "n >= 3")

_add("sunflower", "RRL1", "n(54n^2-42n+31)", "n >= 3")
_add("sunflower", "RRL2", "n(45n^2-36n+27)", "n >= 3")
_add("sunflower", "RRL3", "n(18n^2+3n+9)", "n >= 3")
_add("sunflower", "RRL4",
     "2n(3n-2)|4-3n| + 6n^2(3n-2) + 6n^2|2-3n| + 2n(3n+1)|3n-1|", "n >= 3")

# --- temperature family ---------------------------------------------------------

_add("regular", "TRL1", "3nr^3/(2(n-r)^2)", "r >= 2")
_add("regular", "TRL2", "nr^3/(2(n-r)^2)", "r >= 2")
_add("regular", "TRL3", "3nr^3/(2(n-r)^2)", "r >= 2")
_add("regular", "TRL4", "0", "r >= 2")

_add("cycle", "TRL1", "12n/(n-2)^2", "n >= 3")
_add("cycle", "TRL2", "4n/(n-2)^2", "n >= 3")
_add("cycle", "TRL3", "4n/(n-2)^2", "n >= 3")
_add("cycle", "TRL4", "0", "n >= 3")

_add("complete", "TRL1", "3n(n-1)^3/2", "n >= 3")
_add("complete", "TRL2", "n(n-1)^3/2", "n >= 3")
_add("complete", "TRL3", "n(n-1)^3/2", "n >= 3")
_add("complete", "TRL4", "0", "n >= 3")

_add("path", "TRL1",
     "2(4(n-1)^2 + (n-2)^2 + 2(n-1)(n-2) + 6(n-3)(n-1)^2) / ((n-1)^2(n-2)^2)", "n >= 3")
_add("path", "TRL2",
     "2(2(n-1)^2 + (n-2)^2 - 2(n-1)(n-2)) / ((n-1)^2(n-2)^2)", "n >= 3")
_add("path", "TRL3",
     "2(4(n-1)^2 + (n-2)^2 + 2(n-1)(n-2) + 6(n-3)(n-1)^2) / ((n-1)^2(n-2)^2)", "n >= 3")
_add("path", "TRL4",
     "2(2(n-1)^2 + (n-2)^2 - 2(n-1)(n-2)) / ((n-1)^2(n-2)^2)", "n >= 3")

_add("kmn", "TRL1", "mn(m^2+n^2+mn)", "1 <= m <= n, n >= 2")
_add("kmn", "TRL2", "mn(m^2+n^2-mn)", "1 <= m <= n, n >= 2")

_add("wheel", "TRL1", "n(36/(n-2)^2 + (n+1)n^2/(n-2))", "n >= 3")
_add("wheel", "TRL2", "n(18/(n-2)^2 - (n-5)n^2/(n-2))", "n >= 3")

_add("sunflower", "TRL1",
     "n(5/(n-1)^2 + 27n^2 + 8/(3n-1)^2 + 1/(9n^2) + 6n/(3n-1) + 3n/(n-1)"
     " + 2/((3n-1)(n-1)) + 1)", "n >= 3")
_add("sunflower", "TRL2",
     "n(3/(n-1)^2 + 27n^2 + 8/(3n-1)^2 + 1/(9n^2) - 6n/(3n-1) - 3n/(n-1)"
     " - 2/((3n-1)(n-1)) - 1)", "n >= 3")
_add("sunflower", "TRL3",
     "n(5/(n-1)^2 + 27n^2 + 8/(3n-1)^2 + 1/(9n^2) + 6n/(3n-1) + 3n/(n-1)"
     " + 2/((3n-1)(n-1)) + 1)", "n >= 3")
_add("sunflower", "TRL4",
     "n(3/(n-1)^2 + 27n^2 + 8/(3n-1)^2 + 1/(9n^2) - 6n/(3n-1) - 3n/(n-1)"
     " - 2/((3n-1)(n-1)) - 1)", "n >= 3")

# --- neighbor-degree-product (KV) family ---------------------------------------

_add("regular", "RLKV1", "3nr^(3r)/2", "r >= 2")
_add("regular", "RLKV2", "nr^(3r)/2", "r >= 2")
_add("regular", "RLKV3", "3nr^(2r+1)/2", "r >= 2")
_add("regular", "RLKV4", "0", "r >= 2")

_add("cycle", "RLKV1", "96n", "n >= 3")
_add("cycle", "RLKV2", "16n", "n >= 3")
_add("cycle", "RLKV3", "16n", "n >= 3")
_add("cycle", "RLKV4", "0", "n >= 3")

_add("complete", "RLKV1", "3n(n-1)^(n-1)/2", "n >= 3")
_add("complete", "RLKV2", "n(n-1)^(n-1)/2", "n >= 3")
_add("complete", "RLKV3", "n(n-1)^(2(n-1)+1)/2", "n >= 3")
_add("complete", "RLKV4", "0", "n >= 3")

_add("path", "RLKV1", "24(2n-5)", "n >= 3")
_add("path", "RLKV2", "8(2n-5)", "n >= 3")
_add("path", "RLKV3", "16n-40", "n >= 3")
_add("path", "RLKV4", "0", "n >= 3")

_add("kmn", "RLKV1", "mn(m^(2n) + n^(2m) + m^n n^m)", "1 <= m <= n, n >= 2")
_add("kmn", "RLKV2", "mn(m^(2n) + n^(2m) - m^n n^m)", "1 <= m <= n, n >= 2")
_add("kmn", "RLKV3", "mn(m^n - n^m + m^n n^m)", "1 <= m <= n, n >= 2")
_add("kmn", "RLKV4", "|m^n - n^m| m^(n+1) n^(m+1)", "1 <= m <= n, n >= 2")

_add("wheel", "RLKV1", "n(324n^2 + 3^n(3^n+9n))", "n >= 3")
_add("wheel", "RLKV2", "n(162n^2 + 3^n(3^n-9n))", "n >= 3")
_add("wheel", "RLKV3", "n(81n^2 + (9n+1)3^n - 9n)", "n >= 3")
_add("wheel", "RLKV4", "n |3^n - 9n| 3^n 9n", "n >= 3")

_add("sunflower", "RLKV1", "n(47520n^2 + 3*2^(6n) + 111n*2^(3n))", "n >= 3")
_add("sunflower", "RLKV2", "n(26793n^2 + 3*2^(6n) - 111n*2^(3n))", "n >= 3")

# --- neighbor-degree-sum family -------------------------------------------------

_add("regular", "NRL1", "3nr^3(n-1)^2/2", "r >= 2")
_add("regular", "NRL2", "nr^3(n-1)^2/2", "r >= 2")
_add("regular", "NRL3", "nr^3(n-1)^2/2", "r >= 2")
_add("regular", "NRL4", "0", "r >= 2")

_add("cycle", "NRL1", "12n(n-1)^2", "n >= 3")
_add("cycle", "NRL2", "4n(n-1)^2", "n >= 3")
_add("cycle", "NRL3", "4n(n-1)^2", "n >= 3")
_add("cycle", "NRL4", "0", "n >= 3")

_add("complete", "NRL1", "3n(n-1)^5/2", "n >= 3")
_add("complete", "NRL2", "n(n-1)^5/2", "n >= 3")
_add("complete", "NRL3", "4n(n-1)^5/2", "n >= 3")
_add("complete", "NRL4", "0", "n >= 3")

_add("path", "NRL1", "48n-106", "n >= 3")
_add("path", "NRL2", "16n-34", "n >= 3")
_add("path", "NRL3", "48n-106", "n >= 3")
_add("path", "NRL4", "16n-34", "n >= 3")

_add("kmn", "NRL1", "3(mn)^3", "1 <= m <= n, n >= 2")
_add("kmn", "NRL2", "(mn)^3", "1 <= m <= n, n >= 2")
_add("kmn", "NRL3", "m^2n^2", "1 <= m <= n, n >= 2")
_add("kmn", "NRL4", "0", "1 <= m <= n, n >= 2")

_add("wheel", "NRL1", "n(16n^2+66n+144)", "n >= 3")
_add("wheel", "NRL2", "n(8n^2+6n+72)", "n >= 3")
_add("wheel", "NRL3", "n(4n^2+28n+42)", "n >= 3")
_add("wheel", "NRL4", "6n^2|3-n|(n+6)", "n >= 3")

_add("sunflower", "NRL1", "n(328n^2+406n+504)", "n >= 3")
_add("sunflower", "NRL2", "2n(4n^2+3n+36)", "n >= 3")

# --- domination family ----------------------------------------------------------

_add("complete", "DRL1", "3n(n-1)/2", "n >= 2")
_add("complete", "DRL2", "n(n-1)/2", "n >= 2")
_add("complete", "DRL3", "n(n-1)/2", "n >= 2")
_add("complete", "DRL4", "0", "n >= 2")

_add("star", "DRL1", "3n", "n >= 2")
_add("star", "DRL2", "n", "n >= 2")
_add("star", "DRL3", "n", "n >= 2")
_add("star", "DRL4", "0", "n >= 2")

_add("double_star", "DRL1", "12(p+q+1)", "p, q >= 1")
_add("double_star", "DRL2", "4(p+q+1)", "p, q >= 1")
_add("double_star", "DRL3", "4(p+q+1)", "p, q >= 1")
_add("double_star", "DRL4", "0", "p, q >= 1")

_add("kmn", "DRL1", "mn(m^2+n^2+mn+3m+3n+3)", "2 <= m <= n")
_add("kmn", "DRL2", "mn(m^2+n^2-mn+m+n+1)", "2 <= m <= n")
_add("kmn", "DRL3", "mn(mn+2n+1)", "2 <= m <= n")
_add("kmn", "DRL4", "mn|n-m|(m+1)(n+1)", "2 <= m <= n")

_add("windmill", "DRL1",
     "m(n-1)((n-1)^(2(m-1)) + (n-1)^(m-1) + 1) + 3(mn(n-1)(n-2)/2)(n-1)^(2(m-1))",
     "n >= 3, m >= 3")
_add("windmill", "DRL2",
     "m(n-1)((n-1)^(2(m-1)) - (n-1)^(m-1) + 1) + (mn(n-1)(n-2)/2)(n-1)^(2(m-1))", "n >= 3, m >= 3")

_add("complete", "DRL1exp", "(n(n-1)/2) x^3", "n >= 2")
_add("complete", "DRL2exp", "(n(n-1)/2) x", "n >= 2")
_add("complete", "DRL3exp", "(n(n-1)/2) x", "n >= 2")
_add("complete", "DRL4exp", "n(n-1)/2", "n >= 2")

_add("star", "DRL1exp", "n x^3", "n >= 2")
_add("star", "DRL2exp", "n x", "n >= 2")
_add("star", "DRL3exp", "n x", "n >= 2")
_add("star", "DRL4exp", "n", "n >= 2")

_add("double_star", "DRL1exp", "(p+q+1) x^12", "p, q >= 1")
_add("double_star", "DRL2exp", "(p+q+1) x^4", "p, q >= 1")

_add("kmn", "DRL1exp", "mn x^(m^2+n^2+mn+3m+3n+3)", "2 <= m <= n")
_add("kmn", "DRL2exp", "mn x^(m^2+n^2-mn+m+n+1)", "2 <= m <= n")


# --- public API -----------------------------------------------------------------


def oracle_ids() -> list[str]:
    return sorted(_ENTRIES)


def oracle_eval(oracle_id: str, **params):
    """Exact evaluation of one published closed form at a parameter point."""
    try:
        entry = _ENTRIES[oracle_id]
    except KeyError:
        raise ParamsOutOfStatedRange(f"unknown oracle id {oracle_id!r}") from None
    return entry.eval(**params)


def _family_points(family: str, lo: int, hi: int) -> Iterable[tuple[dict, tuple]]:
    """(Parameter point, ``generate_family`` arguments) pairs over lo..hi.

    The one-parameter families take n in max(lo, 2)..hi, and regular takes
    the same n with r in 2, 3, 4.  kmn takes n in max(lo, 2)..min(hi, 6) with
    m in 1..n.  double_star and windmill ignore lo: double_star takes
    1 <= p <= q <= min(hi, 4), and windmill n in 3..min(hi, 5) with m in 3, 4.
    k1n takes star's arguments.  Each oracle's stated range drops the grid
    points it does not cover.
    """
    if family == "regular":
        for n in range(max(lo, 2), hi + 1):
            for r in (2, 3, 4):
                yield {"n": n, "r": r}, ("regular", n, r)
    elif family == "kmn":
        for n in range(max(lo, 2), min(hi, 6) + 1):
            for m in range(1, n + 1):
                yield {"m": m, "n": n}, ("complete_bipartite", m, n)
    elif family == "double_star":
        for p in range(1, min(hi, 4) + 1):
            for q in range(p, min(hi, 4) + 1):
                yield {"p": p, "q": q}, ("double_star", p, q)
    elif family == "windmill":
        for n in range(3, min(hi, 5) + 1):
            for m in (3, 4):
                yield {"n": n, "m": m}, ("french_windmill", n, m)
    elif family == "knn":
        for n in range(max(lo, 2), hi + 1):
            yield {"n": n}, ("complete_bipartite", n, n)
    else:
        # K_{1,n} is star(n): both families build one graph, with one memo.
        name = "star" if family == "k1n" else family
        for n in range(max(lo, 2), hi + 1):
            yield {"n": n}, (name, n)


def _check_points(graph, points) -> Iterable[OracleResult]:
    """The result of each (entry, params) point of ``points`` on ``graph``."""
    for entry, params in points:
        point = tuple(sorted(params.items()))
        try:
            direct = evaluate(graph, entry.index)
            expected = entry.eval(**params)
        except GraphTooLarge:
            continue  # past the exhaustive domination solver's reach
        except TopoidxError as exc:
            yield OracleResult(entry.id, point, "", "", f"ERROR:{type(exc).__name__}")
            continue
        verdict = CONFIRMED if expected == direct else DISCREPANT
        yield OracleResult(entry.id, point, render_value(expected), render_value(direct), verdict)


def run_verification(
    families: Iterable[str] | None = None,
    lo: int = 3,
    hi: int = 10,
    ids: Iterable[str] | None = None,
) -> list[OracleResult]:
    """Evaluate every selected oracle against direct computation.

    Each (oracle, parameter point) pair yields one result; evaluation errors
    become ``ERROR:`` verdict rows instead of aborting the run.  The selected
    points are grouped by the ``generate_family`` call that builds their
    graph, so each graph is built once, evaluated at all its points and
    dropped before the next one is built.  Results are sorted by id and
    parameters so reports are deterministic.
    """
    family_filter = set(families) if families else None
    id_filter = set(ids) if ids else None
    for kind, given, known in (("family", family_filter, {e.family for e in _ENTRIES.values()}),
                               ("id", id_filter, _ENTRIES)):
        unknown = sorted((given or set()) - set(known))
        if unknown:
            raise ParamsOutOfStatedRange(f"unknown oracle {kind} {', '.join(map(repr, unknown))}")
    points_by_spec: dict[tuple, list] = {}
    for oracle_id in sorted(_ENTRIES):
        entry = _ENTRIES[oracle_id]
        if family_filter and entry.family not in family_filter:
            continue
        if id_filter and oracle_id not in id_filter:
            continue
        for params, spec in _family_points(entry.family, lo, hi):
            if _RANGES[entry.range_text](**params):
                points_by_spec.setdefault(spec, []).append((entry, params))
    results = []
    for spec, points in points_by_spec.items():
        results.extend(_check_points(generate_family(*spec), points))
    results.sort(key=lambda r: (r.oracle_id, r.params))
    return results


# --- expected-verdict baseline ----------------------------------------------------
#
# The shipped baseline records, for every oracle over the grid of `verify
# --range 2..10` (no grid starts below n = 2), the verdict the current
# definitions produce: a per-oracle default plus explicit per-point exceptions
# (coincidental equalities and the like).  `verify --range 2..10
# --update-baseline src/topoidx/baseline.json` rewrites it.  `verify`
# exits nonzero when a computed verdict deviates from this record or either
# side has an id the other lacks, so known published discrepancies stay
# visible without failing CI.


def baseline_from_results(results: Iterable[OracleResult]) -> dict:
    by_id: dict[str, dict[str, str]] = {}
    for r in results:
        by_id.setdefault(r.oracle_id, {})[r.params_label] = r.verdict
    baseline = {}
    for oracle_id, verdicts in sorted(by_id.items()):
        counts: dict[str, int] = {}
        for v in verdicts.values():
            counts[v] = counts.get(v, 0) + 1
        default = max(sorted(counts), key=lambda v: counts[v])
        exceptions = {label: v for label, v in sorted(verdicts.items()) if v != default}
        record: dict = {"default": default}
        if exceptions:
            record["exceptions"] = exceptions
        baseline[oracle_id] = record
    return baseline


def load_baseline(path=None) -> dict:
    """Oracle id -> {"default": verdict, optional "exceptions": {point: verdict}}."""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise BaselineFileError(f"{path}: {exc}") from None
        if not isinstance(baseline, dict) or not all(
            isinstance(record, dict) and "default" in record
            and isinstance(record.get("exceptions", {}), dict)
            for record in baseline.values()
        ):
            raise BaselineFileError(f"{path}: expected an object of oracle id -> "
                                    '{"default": verdict, "exceptions": {...}}')
        return baseline
    # Beside this module, in a checkout and in an installed package alike.
    shipped = os.path.join(os.path.dirname(__file__), "baseline.json")
    with open(shipped, encoding="utf-8") as handle:
        return json.load(handle)


def compare_to_baseline(results: Iterable[OracleResult], baseline: dict):
    """Return (deviations, unknown results, stale baseline ids) against a baseline."""
    deviations, unknown = [], []
    for r in results:
        record = baseline.get(r.oracle_id)
        if record is None:
            unknown.append(r)
            continue
        expected = record.get("exceptions", {}).get(r.params_label, record["default"])
        if r.verdict != expected:
            deviations.append((r, expected))
    return deviations, unknown, sorted(set(baseline) - set(_ENTRIES))
