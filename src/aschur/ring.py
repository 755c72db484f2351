"""Exact Laurent polynomials in the variable v: the ring Z[v, v^-1].

Every scalar in this package lives here.  Coefficients are Python ints
and nothing else: the constructor rejects any other type, `exact_div`
divides in Z[v, v^-1] and raises when the quotient is not there, and
negative powers exist only for the units +-v^e.  `specialize` evaluates
at a rational v, so its value is a rational number, not a ring
element.

The convention throughout is q = v^2, so q-side quantities are Laurent
polynomials whose exponents are all even; quantum integers
[m] = (v^m - v^-m)/(v - v^-1), quantum factorials [m]! and balanced
Gaussian binomial coefficients are provided as constructors.

Polynomials are immutable and store no zero coefficient, so equality is
plain structural equality.

`Combination` is the free module over this ring: a finite combination of
basis keys, with the sums, negation, scaling and equality that operator
words, Hecke elements and Schur elements share.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping


class LaurentPoly:
    """A sparse Laurent polynomial {exponent: coefficient} in Z[v, v^-1].

    Coefficients are ints; any other coefficient type raises TypeError.

    >>> (LaurentPoly.v() + LaurentPoly.v(-1)) ** 2
    LaurentPoly('v^2 + 2 + v^-2')
    >>> LaurentPoly.v(3) * LaurentPoly.v(-3)
    LaurentPoly('1')
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, x in coeffs.items():
                if type(x) is not int:
                    raise TypeError(f"coefficient {x!r} is not an int")
                if x:
                    c[int(e)] = x
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def const(cls, x: int) -> LaurentPoly:
        return cls({0: x})

    @classmethod
    def v(cls, exponent: int = 1, coeff: int = 1) -> LaurentPoly:
        return cls({exponent: coeff})

    @classmethod
    def q(cls, power: int = 1, coeff: int = 1) -> LaurentPoly:
        """q^power with q = v^2."""
        return cls({2 * power: coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def coeff(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def items(self):
        return self._c.items()

    def degree(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        return max(self._c)

    def valuation(self) -> int:
        """Smallest exponent; raises on the zero polynomial."""
        return min(self._c)

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = _coerce(other)
        c = dict(self._c)
        for e, x in other._c.items():
            y = c.get(e, 0) + x
            if y:
                c[e] = y
            else:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -x for e, x in self._c.items()}
        return out

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = _coerce(other)
        c = dict(self._c)
        for e, x in other._c.items():
            y = c.get(e, 0) - x
            if y:
                c[e] = y
            else:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __rsub__(self, other: int) -> LaurentPoly:
        return _coerce(other) - self

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        other = _coerce(other)
        c: dict[int, int] = {}
        for e1, x1 in self._c.items():
            for e2, x2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + x1 * x2
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: x for e, x in c.items() if x}
        return out

    __rmul__ = __mul__

    def shifted(self, k: int) -> LaurentPoly:
        """self * v^k, as a shift of every exponent by k (so c * q is
        ``c.shifted(2)``); the coefficients are kept as they are.

        >>> (LaurentPoly.v() + 2).shifted(2)
        LaurentPoly('v^3 + 2*v^2')
        """
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e + k: x for e, x in self._c.items()}
        return out

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            if not self.is_monomial() or self.coeff(self.degree()) not in (1, -1):
                raise ValueError("negative powers only for the units +-v^e")
            ((e, x),) = self._c.items()
            return LaurentPoly({n * e: x ** -n})
        out = LaurentPoly.one()
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if type(other) is int:
            other = _coerce(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        # equal values hash equal: a constant hashes as its int, zero as 0
        if self._c.keys() <= {0}:
            return hash(self._c.get(0, 0))
        return hash(tuple(sorted(self._c.items())))

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- ring-specific operations -------------------------------------------

    def bar(self) -> LaurentPoly:
        """The involution v -> v^-1."""
        return LaurentPoly({-e: x for e, x in self._c.items()})

    def specialize(self, value: int | Fraction) -> Fraction:
        """Evaluate at v = value (an exact nonzero rational); a Fraction."""
        val = Fraction(value)
        if val == 0:
            raise ZeroDivisionError("cannot specialize a Laurent polynomial at 0")
        total = Fraction(0)
        for e, x in self._c.items():
            total += x * val**e
        return total

    def exact_div(self, other: LaurentPoly) -> LaurentPoly:
        """Divide exactly by ``other`` in Z[v, v^-1]; raise ValueError when
        the quotient is not there (a remainder, or a quotient coefficient
        that is not an integer).

        >>> LaurentPoly({1: 2, 0: 2}).exact_div(LaurentPoly.const(2))
        LaurentPoly('v + 1')
        >>> num = LaurentPoly({5: 1, -5: -1})
        >>> den = LaurentPoly({1: 1, -1: -1})
        >>> num.exact_div(den)
        LaurentPoly('v^4 + v^2 + 1 + v^-2 + v^-4')
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        shift = self.valuation() - other.valuation()
        num = _dense(self)
        den = _dense(other)
        quo = [0] * (len(num) - len(den) + 1)
        if len(num) < len(den):
            raise ValueError("not exactly divisible")
        rem = list(num)
        lead = den[-1]
        for k in range(len(quo) - 1, -1, -1):
            c, rest = divmod(rem[k + len(den) - 1], lead)
            if rest:
                raise ValueError("not exactly divisible")
            quo[k] = c
            if c:
                for j, d in enumerate(den):
                    rem[k + j] -= c * d
        if any(rem):
            raise ValueError("not exactly divisible")
        return LaurentPoly({shift + k: c for k, c in enumerate(quo) if c})

    # -- rendering ----------------------------------------------------------

    def render(self, mode: str = "v") -> str:
        """Text form; mode 'q' demands all exponents even.

        >>> gauss_binom(2, 1).render()
        'v + v^-1'
        >>> (LaurentPoly.q() + 1).render('q')
        'q + 1'
        """
        if not self._c:
            return "0"
        if mode == "q":
            if any(e % 2 for e in self._c):
                raise ValueError("odd exponent present: cannot render in q")
            sym, expo = "q", {e: e // 2 for e in self._c}
        elif mode == "v":
            sym, expo = "v", {e: e for e in self._c}
        else:
            raise ValueError(f"unknown render mode {mode!r}")
        parts: list[str] = []
        for e in sorted(self._c, reverse=True):
            x = self._c[e]
            k = expo[e]
            if k == 0:
                body = str(abs(x))
            else:
                pw = sym if k == 1 else f"{sym}^{k}"
                body = pw if abs(x) == 1 else f"{abs(x)}*{pw}"
            if not parts:
                parts.append(body if x > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if x > 0 else f"- {body}")
        return " ".join(parts)

    def structured(self) -> list[list[int]]:
        """[[exponent, coefficient, 1], ...], highest exponent first: the
        schema's third entry is a denominator, always 1 in Z[v, v^-1]."""
        return [[e, self._c[e], 1] for e in sorted(self._c, reverse=True)]

    def __repr__(self) -> str:
        return f"LaurentPoly('{self.render()}')"

    __str__ = __repr__


def _coerce(x: LaurentPoly | int) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly({0: x})


def _dense(p: LaurentPoly) -> list[int]:
    lo, hi = p.valuation(), p.degree()
    out = [0] * (hi - lo + 1)
    for e, x in p.items():
        out[e - lo] = x
    return out


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
V = LaurentPoly.v()


def add_term(d: dict, key, c: LaurentPoly) -> None:
    """d[key] += c in place, dropping the key when the sum is zero."""
    old = d.get(key)
    if old is None:
        if c:
            d[key] = c
        return
    s = old + c
    if s:
        d[key] = s
    else:
        d.pop(key, None)


class Combination:
    """A finite Z[v, v^-1]-combination of basis keys: the free-module
    structure that operator words, Hecke elements and Schur elements share.

    ``terms`` maps each key to its nonzero coefficient.  ``space`` names the
    module the element lives in (() for operator words, r for Hecke
    elements, (n, r) for Schur elements); only elements of one space add,
    and they compare equal only when their spaces do.  Subclasses supply
    ``__mul__``, ``render`` and their own constructors.

    >>> a = Combination(2, {"x": LaurentPoly.v(), "y": ZERO})
    >>> (a + a).terms, (a - a).is_zero()
    ({'x': LaurentPoly('2*v')}, True)
    """

    __slots__ = ("space", "terms")
    __hash__ = None

    def __init__(self, space, terms: Mapping | None = None):
        self.space = space
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def _like(self, terms: dict) -> Combination:
        """An element of this class and space with these (nonzero) terms."""
        out = object.__new__(type(self))
        out.space = self.space
        out.terms = terms
        return out

    def _check_space(self, other: Combination) -> None:
        if self.space != other.space:
            raise ValueError(f"space mismatch: {self.space} and {other.space}")

    def __add__(self, other: Combination) -> Combination:
        self._check_space(other)
        t = dict(self.terms)
        for k, c in other.terms.items():
            add_term(t, k, c)
        return self._like(t)

    def __neg__(self) -> Combination:
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: Combination) -> Combination:
        return self + (-other)

    def scaled(self, c: LaurentPoly | int) -> Combination:
        cc = c if isinstance(c, LaurentPoly) else LaurentPoly.const(c)
        if not cc:
            return self._like({})
        return self._like({k: x * cc for k, x in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.space == other.space
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}<{self.render()}>"


def quantum_int(m: int) -> LaurentPoly:
    """[m] = v^(m-1) + v^(m-3) + ... + v^(1-m) for m >= 0.

    >>> quantum_int(2)
    LaurentPoly('v + v^-1')
    >>> quantum_int(0)
    LaurentPoly('0')
    """
    if m < 0:
        raise ValueError("quantum_int requires m >= 0")
    return LaurentPoly({e: 1 for e in range(m - 1, -m, -2)})


def signed_quantum_int(m: int) -> LaurentPoly:
    """[m] extended to all integers by [-m] = -[m]."""
    return quantum_int(m) if m >= 0 else -quantum_int(-m)


def quantum_fact(m: int) -> LaurentPoly:
    """[m]! = [1][2]...[m], with [0]! = 1.

    >>> quantum_fact(3)
    LaurentPoly('v^3 + 2*v + 2*v^-1 + v^-3')
    """
    if m < 0:
        raise ValueError("quantum_fact requires m >= 0")
    out = LaurentPoly.one()
    for k in range(2, m + 1):
        out = out * quantum_int(k)
    return out


def gauss_binom(m: int, t: int) -> LaurentPoly:
    """Balanced Gaussian binomial [m choose t], for any integer m, t >= 0.

    Computed as the product over s = 1..t of
    (v^(m-s+1) - v^(s-1-m)) / (v^s - v^-s); each partial product is again a
    Laurent polynomial, so the divisions are exact.

    >>> gauss_binom(4, 2)
    LaurentPoly('v^4 + v^2 + 2 + v^-2 + v^-4')
    >>> gauss_binom(1, 3)
    LaurentPoly('0')
    """
    if t < 0:
        raise ValueError("gauss_binom requires t >= 0")
    out = LaurentPoly.one()
    for s in range(1, t + 1):
        num = LaurentPoly({m - s + 1: 1}) + LaurentPoly({s - 1 - m: -1})
        den = LaurentPoly({s: 1, -s: -1})
        out = (out * num).exact_div(den)
    return out


def specialize(p: LaurentPoly, value: int | Fraction) -> Fraction:
    """Evaluation homomorphism v -> value (value must be nonzero).

    >>> specialize(quantum_int(5), 1)
    Fraction(5, 1)
    """
    return p.specialize(value)
