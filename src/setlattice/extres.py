"""Extended real line R ∪ {±∞} with inf-addition and inf-residuation.

All finite values are exact rationals (`fractions.Fraction`), so the
residuation law ``a <= inf_add(b, t)  <=>  residual(a, b) <= t`` holds
exactly, not merely up to rounding.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Union

RationalLike = Union[int, str, Fraction]

_FIN = 0
_PLUS = 1
_MINUS = -1


@total_ordering
class ExtReal:
    """An element of R ∪ {+∞, -∞} under the total order -∞ < finite < +∞."""

    __slots__ = ("tag", "value")

    def __init__(self, value: RationalLike = 0, *, _tag: int = _FIN):
        if _tag == _FIN:
            # a Fraction is immutable: it is kept as given, not rebuilt
            object.__setattr__(self, "value", value if type(value) is Fraction else Fraction(value))
        else:
            object.__setattr__(self, "value", None)
        object.__setattr__(self, "tag", _tag)

    def __setattr__(self, name, val):  # immutable
        raise AttributeError("ExtReal is immutable")

    # -- predicates --------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.tag == _FIN

    @property
    def is_plus_inf(self) -> bool:
        return self.tag == _PLUS

    @property
    def is_minus_inf(self) -> bool:
        return self.tag == _MINUS

    # -- order -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            if isinstance(other, (int, Fraction)):
                other = ExtReal(other)
            else:
                return NotImplemented
        return self.tag == other.tag and self.value == other.value

    def __hash__(self):
        return hash((self.tag, self.value))

    def __lt__(self, other) -> bool:
        if not isinstance(other, ExtReal):
            if isinstance(other, (int, Fraction)):
                other = ExtReal(other)
            else:
                return NotImplemented
        if self.tag != other.tag:
            return self.tag < other.tag
        if self.tag != _FIN:
            return False
        return self.value < other.value

    # -- arithmetic --------------------------------------------------

    def __neg__(self) -> "ExtReal":
        if self.tag == _FIN:
            return ExtReal(-self.value)
        return MINUS_INF if self.tag == _PLUS else PLUS_INF

    def scale(self, s: RationalLike) -> "ExtReal":
        """Multiply by a positive rational (infinities keep their sign)."""
        s = Fraction(s)
        if s <= 0:
            raise ValueError("scale factor must be positive")
        if self.tag == _FIN:
            return ExtReal(self.value * s)
        return self

    def __repr__(self):
        if self.tag == _PLUS:
            return "ExtReal(+inf)"
        if self.tag == _MINUS:
            return "ExtReal(-inf)"
        return f"ExtReal({self.value})"

    # -- serialization -----------------------------------------------

    def to_json(self) -> dict:
        if self.tag == _PLUS:
            return {"t": "+inf"}
        if self.tag == _MINUS:
            return {"t": "-inf"}
        return {"t": "fin", "n": str(self.value.numerator), "d": str(self.value.denominator)}

    @staticmethod
    def from_json(obj: dict) -> "ExtReal":
        t = obj["t"]
        if t == "+inf":
            return PLUS_INF
        if t == "-inf":
            return MINUS_INF
        return ExtReal(Fraction(int(obj["n"]), int(obj["d"])))


PLUS_INF = ExtReal(_tag=_PLUS)
MINUS_INF = ExtReal(_tag=_MINUS)


def inf_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Inf-addition: +∞ dominates, so (+∞) ⊞ (-∞) = +∞."""
    if a.tag == _PLUS or b.tag == _PLUS:
        return PLUS_INF
    if a.tag == _MINUS or b.tag == _MINUS:
        return MINUS_INF
    return ExtReal(a.value + b.value)


def residual(r: ExtReal, s: ExtReal) -> ExtReal:
    """Inf-residuation r ÷ s = inf{t ∈ R | r <= s ⊞ t}.

    Case table (fixed as the module contract):
      finite ÷ finite = r - s
      (-∞) ÷ anything = -∞
      r ÷ (+∞) = -∞ for every r
      finite ÷ (-∞) = (+∞) ÷ (-∞) = +∞
      (+∞) ÷ s = +∞ for finite s
    """
    if r.tag == _MINUS:
        return MINUS_INF
    if s.tag == _PLUS:
        return MINUS_INF
    if s.tag == _MINUS:
        return PLUS_INF
    if r.tag == _PLUS:
        return PLUS_INF
    return ExtReal(r.value - s.value)


def ext_min(values) -> ExtReal:
    """Minimum of an iterable of ExtReal; empty iterable gives +∞ (inf of ∅)."""
    best = PLUS_INF
    for v in values:
        if v < best:
            best = v
    return best


def ext_max(values) -> ExtReal:
    """Maximum of an iterable of ExtReal; empty iterable gives -∞ (sup of ∅)."""
    best = MINUS_INF
    for v in values:
        if best < v:
            best = v
    return best
