"""Formal operator words: linear combinations of words in the generators.

A word is a tuple of symbols drawn from E_i, F_i, K_i^{+-1}, R^{+-1},
weight projectors P(lambda), and the classical generators e_i, f_i, H_i.
A symbol is the named tuple (kind, index, projector weight).
Words multiply by concatenation and act on tensor space by applying the
rightmost symbol first.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .ring import Combination, LaurentPoly, add_term
from .weights import Weight

Kind = str  # 'E','F','K','Kinv','R','Rinv','P','e','f','H'


class Sym(NamedTuple):
    """A symbol, the tuple (kind, index, projector weight): index for the
    indexed kinds, the weight for P and None otherwise."""

    kind: Kind
    index: int = 0
    weight: Weight | None = None

    def render(self) -> str:
        if self.kind == "P":
            return f"P{self.weight.render()}"
        if self.kind in ("R", "Rinv"):
            return "R" if self.kind == "R" else "R^-1"
        if self.kind == "Kinv":
            return f"K{self.index}^-1"
        return f"{self.kind}{self.index}"


def E(i: int) -> Sym:
    return Sym("E", i)


def F(i: int) -> Sym:
    return Sym("F", i)


def K(i: int) -> Sym:
    return Sym("K", i)


def Kinv(i: int) -> Sym:
    return Sym("Kinv", i)


R = Sym("R")
Rinv = Sym("Rinv")


def P(w: Weight) -> Sym:
    return Sym("P", weight=w)


def ce(i: int) -> Sym:
    return Sym("e", i)


def cf(i: int) -> Sym:
    return Sym("f", i)


def cH(i: int) -> Sym:
    return Sym("H", i)


Word = tuple[Sym, ...]


class OperatorExpr(Combination):
    """Finite LaurentPoly-combination of operator words."""

    __slots__ = ()

    def __init__(self, terms: dict[Word, LaurentPoly] | None = None):
        Combination.__init__(self, (), terms)

    @classmethod
    def zero(cls) -> OperatorExpr:
        return cls()

    @classmethod
    def one(cls) -> OperatorExpr:
        return cls({(): LaurentPoly.one()})

    @classmethod
    def word(cls, syms: Iterable[Sym], coeff: LaurentPoly | int = 1) -> OperatorExpr:
        c = coeff if isinstance(coeff, LaurentPoly) else LaurentPoly.const(coeff)
        return cls({tuple(syms): c})

    def __mul__(self, other: OperatorExpr) -> OperatorExpr:
        t: dict[Word, LaurentPoly] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                add_term(t, w1 + w2, c1 * c2)
        return self._like(t)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), tuple(s.render() for s in w))):
            c = self.terms[w]
            body = " ".join(s.render() for s in w) if w else "1"
            parts.append(f"({c.render()})*{body}")
        return " + ".join(parts)


def chain(kind: Kind, indices: Iterable[int]) -> list[Sym]:
    """[X_{i_1}, X_{i_2}, ...] for X = E or F."""
    return [Sym(kind, i) for i in indices]


def power(sym: Sym, c: int) -> list[Sym]:
    return [sym] * c
