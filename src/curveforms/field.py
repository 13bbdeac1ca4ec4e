"""Exact scalars: rationals and simple algebraic extensions Q[z]/(m(z)).

Coefficients are plain `mpq` values over the rationals and `ExtElement`
values over an extension; both support the usual arithmetic operators.  An
ExtElement is coded as integer numerators over one denominator, and the
Groebner engine reduces vectors of those numerators, as it reduces integer
vectors over Q.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add, sub
from typing import Sequence, Union

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rational

from .errors import DivisionByZero, FieldMismatch, InvalidInput, MissingEmbedding

RatLike = Union[int, str, "Rational"]


def rational(value: RatLike = 0, den: int | None = None) -> Rational:
    """Build an exact rational in lowest terms with positive denominator."""
    if den is not None:
        if den == 0:
            raise DivisionByZero("zero denominator")
        return Rational(value, den)
    return Rational(value)


class RationalField:
    """The field of rational numbers; scalars are bare `mpq` values."""

    kind = "rationals"
    degree = 1
    generator_name = None
    minpoly = None

    zero, one = Rational(0), Rational(1)

    def from_rational(self, r):
        if isinstance(r, Rational):
            return r
        num = getattr(r, "numerator", None)
        if num is not None:
            return Rational(int(num), int(r.denominator))
        return Rational(r)

    from_int = from_rational

    def scalar(self, coeffs: Sequence[RatLike]):
        if len(coeffs) != 1:
            raise FieldMismatch("rational scalars have a single coordinate")
        return self.from_rational(coeffs[0])

    def coeffs(self, a):
        return (Rational(a),)

    def is_zero(self, a) -> bool:
        return a == 0

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return 1 / Rational(a)

    def embed_float(self, a, embedding=None) -> float:
        return float(a)

    def format_scalar(self, a) -> str:
        return str(a) if a.denominator != 1 else str(a.numerator)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def format_terms(terms, format_coeff) -> str:
    """Canonical text of a sum; the one printing rule of the package.

    ``terms`` holds (monomial text, nonzero coefficient) pairs in print
    order, "" standing for the monomial 1.  A coefficient whose text has an
    inner sign is parenthesised and added; any other carries its own sign,
    and a unit coefficient is left out.  The empty sum prints as "0".
    """
    out = []
    for mono, c in terms:
        cs = format_coeff(c)
        sign = "+" if out else ""
        if "+" in cs[1:] or "-" in cs[1:]:
            cs = f"({cs})"
        elif cs[0] == "-":
            sign, cs = "-", cs[1:]
        if mono:
            cs = mono if cs == "1" else f"{cs}*{mono}"
        out.append(sign + cs)
    return "".join(out) or "0"


def format_univariate(coeffs, var: str = "t", field: Field = QQ) -> str:
    """Ascending coefficients printed as a polynomial in ``var``."""
    return format_terms(
        [(var if k == 1 else f"{var}^{k}" if k else "", c)
         for k, c in reversed(list(enumerate(coeffs))) if c],
        field.format_scalar)


class ExtElement:
    """Element of Q[z]/(m(z)): int numerators ``nums`` on 1, w, .., w^(n-1)
    (see NumberField) over one positive ``den``, in lowest terms; ``coeffs``
    is the read-only view of the rational coordinates on 1, z, .., z^(n-1)."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: "NumberField", nums, den: int = 1):
        self.field, self.nums, self.den = field, tuple(nums), den

    @property
    def coeffs(self):
        scale, den = self.field.scale, self.den
        return tuple(Rational(x * scale ** k, den) for k, x in enumerate(self.nums))

    def _coerce(self, other):
        if isinstance(other, ExtElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldMismatch("extension elements over different fields")
            return other
        if isinstance(other, (int, Rational)):
            return self.field.from_rational(other)
        return NotImplemented

    def _combine(self, other, op):
        """self op other for op in (add, sub), over one denominator."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d, e = self.den, o.den
        return self.field.element(
            [op(a * e, b * d) for a, b in zip(self.nums, o.nums)], d * e)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        diff = self._combine(other, sub)
        return diff if diff is NotImplemented else -diff

    def __neg__(self):
        return ExtElement(self.field, [-a for a in self.nums], self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.field._mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.field._mul(self, self.field.inv(o))

    def __rtruediv__(self, other):
        return self.field.inv(self) * other

    def __pow__(self, n: int):
        if n < 0:
            return self.field.inv(self) ** (-n)
        result, base = self.field.one, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            return (self.nums == other.nums and self.den == other.den
                    and (self.field is other.field or self.field == other.field))
        if isinstance(other, (int, Rational)):
            return (self.nums[0] == other.numerator and self.den == other.denominator
                    and not any(self.nums[1:]))
        return NotImplemented

    def __hash__(self):  # a rational constant hashes like the rational it equals
        return hash(self.coeffs if any(self.nums[1:]) else self.coeffs[0])

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        return self.field.format_scalar(self)


class NumberField:
    """Q[z]/(m(z)) for a monic squarefree m of degree >= 2 over Q.  Elements
    are coded on the powers of w = scale*z, scale the lcm of the denominators
    of m, so w is integral: its minimal polynomial is scale^n * m(w/scale)."""

    kind = "extension"

    def __init__(self, minpoly: Sequence[RatLike], generator_name: str = "z"):
        from .linalg import UniPoly  # linalg imports this module
        m = UniPoly([Rational(c) for c in minpoly])
        coeffs = list(m.coeffs)
        if len(coeffs) < 3:
            raise InvalidInput("minimal polynomial must have degree >= 2")
        if coeffs[-1] != 1:
            raise InvalidInput("minimal polynomial must be monic")
        if m.gcd(m.derivative()).degree() != 0:
            raise InvalidInput("minimal polynomial must be squarefree")
        self.minpoly = tuple(coeffs)
        n = self.degree = len(coeffs) - 1
        self.generator_name = generator_name
        self.scale = lcm(*(int(c.denominator) for c in coeffs))
        mw = [int(c * self.scale ** (n - k)) for k, c in enumerate(coeffs)]
        # w^(n+k) reduced mod that polynomial, for products of degree <= 2n-2
        self._rows, current = [], [-c for c in mw[:-1]]
        for _ in range(n - 1):
            self._rows.append(current)
            lead, current = current[-1], [0] + current[:-1]
            current = [c - lead * a for c, a in zip(current, mw)]
        self.zero = ExtElement(self, (0,) * n)
        self.one = ExtElement(self, (1,) + (0,) * (n - 1))
        self.generator = self.element((0, 1) + (0,) * (n - 2), self.scale)

    def element(self, nums, den: int = 1) -> ExtElement:
        """nums/den, on the basis of the powers of w, in lowest terms."""
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        if g != 1:
            nums, den = [a // g for a in nums], den // g
        return ExtElement(self, nums, den)

    def from_rational(self, r):
        if isinstance(r, ExtElement):
            if r.field != self:
                raise FieldMismatch("element of a different extension")
            return r
        if not isinstance(r, (int, Rational)):
            r = QQ.from_rational(r)
        return ExtElement(self, (int(r.numerator),) + self.zero.nums[1:],
                          int(r.denominator))

    from_int = from_rational

    def scalar(self, coeffs: Sequence[RatLike]):
        """The element with these rational coordinates on 1, z, .., z^(n-1)."""
        if len(coeffs) > self.degree:
            raise FieldMismatch("too many coordinates for this extension")
        c = [Rational(v) / self.scale ** k for k, v in enumerate(coeffs)]
        den = lcm(*(int(x.denominator) for x in c))
        return ExtElement(self, [int(x * den) for x in c]
                          + [0] * (self.degree - len(c)), den)

    def coeffs(self, a: ExtElement):
        return a.coeffs

    def is_zero(self, a) -> bool:
        return not a

    def mul_ints(self, a, b) -> tuple:
        """Product of two integer numerator tuples: integral, as w is."""
        n = self.degree
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:n]
        for row, c in zip(self._rows, prod[n:]):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return tuple(out)

    def _mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        return self.element(self.mul_ints(a.nums, b.nums), a.den * b.den)

    def inv(self, a: ExtElement) -> ExtElement:
        if not a:
            raise DivisionByZero("inverse of zero")
        from .linalg import UniPoly  # linalg imports this module
        # extended Euclid on (m, a), keeping u1 * a == r1 modulo m
        r0, r1 = UniPoly(self.minpoly), UniPoly(a.coeffs)
        u0, u1 = UniPoly.zero(), UniPoly.one()
        while r1.degree() > 0:
            q, r = r0.divmod(r1)
            r0, r1, u0, u1 = r1, r, u1, u0 - q * u1
        if r1.is_zero():
            raise DivisionByZero(
                "non-invertible element; the minimal polynomial is reducible")
        return self.scalar((u1 * (1 / r1.coeffs[0])).coeffs)

    def embed_float(self, a: ExtElement, embedding=None) -> float:
        if embedding is None:
            if not any(a.nums[1:]):
                return float(a.coeffs[0])
            raise MissingEmbedding(
                "a numeric value for the generator is required")
        total = 0.0
        for c in reversed(a.coeffs):
            total = total * embedding + float(c)
        return total

    def format_scalar(self, a: ExtElement) -> str:
        return format_univariate(a.coeffs, self.generator_name)

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.minpoly == other.minpoly
                and self.generator_name == other.generator_name)

    def __hash__(self):
        return hash((self.minpoly, self.generator_name))

    def __repr__(self):
        return f"QQ[{self.generator_name}]/({format_univariate(self.minpoly, self.generator_name)})"


Field = RationalField | NumberField


def check_same_field(a: Field, b: Field):
    if a != b:
        raise FieldMismatch(f"mixed coefficient fields: {a!r} vs {b!r}")
