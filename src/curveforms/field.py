"""Exact scalars: rationals and simple algebraic extensions Q[z]/(m(z)).

Coefficients are plain `mpq` values over the rationals and `ExtElement`
wrappers over an extension; both support the usual arithmetic operators.
Only the Groebner engine tells them apart: over Q it reduces integer vectors.
"""

from __future__ import annotations

from typing import Sequence, Union

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rational

from .errors import DivisionByZero, FieldMismatch, InvalidInput

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

    @property
    def zero(self):
        return Rational(0)

    @property
    def one(self):
        return Rational(1)

    def from_int(self, n: int):
        return Rational(n)

    def from_rational(self, r):
        if isinstance(r, Rational):
            return r
        num = getattr(r, "numerator", None)
        if num is not None:
            return Rational(int(num), int(r.denominator))
        return Rational(r)

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
    """Element of Q[z]/(m(z)): a fixed-length tuple of rational coordinates."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "NumberField", coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, ExtElement):
            if other.field != self.field:
                raise FieldMismatch("extension elements over different fields")
            return other
        if isinstance(other, (int, Rational)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ExtElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ExtElement(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __neg__(self):
        return ExtElement(self.field, tuple(-a for a in self.coeffs))

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
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return self.field.inv(self) ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, ExtElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Rational)):
            return self.coeffs[0] == other and all(c == 0 for c in self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __repr__(self):
        return self.field.format_scalar(self)


class NumberField:
    """Q[z]/(m(z)) for a monic squarefree m of degree >= 2 over Q."""

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
        self.degree = len(coeffs) - 1
        self.generator_name = generator_name
        # powers z^(degree+k) reduced mod m, for products of degree <= 2*degree-2
        self._high_powers = []
        current = [-c for c in coeffs[:-1]]
        for _ in range(self.degree - 1):
            self._high_powers.append(tuple(current))
            current = [Rational(0)] + current
            lead = current.pop()
            if lead != 0:
                for i in range(self.degree):
                    current[i] -= lead * coeffs[i]

    @property
    def zero(self):
        return ExtElement(self, (Rational(0),) * self.degree)

    @property
    def one(self):
        return ExtElement(self, (Rational(1),) + (Rational(0),) * (self.degree - 1))

    @property
    def generator(self):
        c = [Rational(0)] * self.degree
        c[1] = Rational(1)
        return ExtElement(self, c)

    def from_int(self, n: int):
        return self.from_rational(Rational(n))

    def from_rational(self, r):
        if isinstance(r, ExtElement):
            if r.field != self:
                raise FieldMismatch("element of a different extension")
            return r
        return ExtElement(self, (QQ.from_rational(r),)
                          + (Rational(0),) * (self.degree - 1))

    def scalar(self, coeffs: Sequence[RatLike]):
        c = [Rational(v) for v in coeffs]
        if len(c) > self.degree:
            raise FieldMismatch("too many coordinates for this extension")
        c += [Rational(0)] * (self.degree - len(c))
        return ExtElement(self, c)

    def coeffs(self, a: ExtElement):
        return a.coeffs

    def is_zero(self, a) -> bool:
        return not a

    def _mul(self, a: ExtElement, b: ExtElement) -> ExtElement:
        n = self.degree
        prod = [Rational(0)] * (2 * n - 1)
        for i, ai in enumerate(a.coeffs):
            if ai == 0:
                continue
            for j, bj in enumerate(b.coeffs):
                if bj != 0:
                    prod[i + j] += ai * bj
        out = prod[:n]
        for k in range(n, 2 * n - 1):
            if prod[k] != 0:
                red = self._high_powers[k - n]
                for i in range(n):
                    out[i] += prod[k] * red[i]
        return ExtElement(self, out)

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
        u = (u1 * (1 / r1.coeffs[0])).coeffs
        return ExtElement(self, u + (Rational(0),) * (self.degree - len(u)))

    def embed_float(self, a: ExtElement, embedding=None) -> float:
        from .errors import MissingEmbedding
        if embedding is None:
            if all(c == 0 for c in a.coeffs[1:]):
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
