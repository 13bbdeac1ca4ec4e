"""Exact scalars: rationals and simple algebraic extensions Q[z]/(m(z)).

Coefficients are plain `mpq` values over the rationals and `ExtElement`
wrappers over an extension; both support the usual arithmetic operators,
so the rest of the engine never dispatches on the field kind.
"""

from __future__ import annotations

from typing import Sequence, Union

try:
    from gmpy2 import mpq as Rational
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rational

from .errors import DivisionByZero, FieldMismatch

RatLike = Union[int, str, "Rational"]


def rational(value: RatLike = 0, den: int | None = None) -> Rational:
    """Build an exact rational in lowest terms with positive denominator."""
    if den is not None:
        if den == 0:
            raise DivisionByZero("zero denominator")
        return Rational(value, den)
    return Rational(value)


# ---------------------------------------------------------------------------
# univariate helpers over Q, used only for minimal-polynomial bookkeeping
# (coefficient lists ascending, no trailing zeros)

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _deriv(c):
    return _trim([c[k] * k for k in range(1, len(c))])


def _divmod_poly(a, b):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    q = [Rational(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        coeff = a[-1] * inv_lead
        q[k] = coeff
        for i, bc in enumerate(b):
            a[k + i] -= coeff * bc
        _trim(a)
    return _trim(q), a


def _gcd_poly(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _divmod_poly(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _ext_euclid(a, m):
    """Return (g, u) with u*a + v*m = g, g monic, for a mod m inversion."""
    r0, r1 = list(m), list(a)
    u0, u1 = [], [Rational(1)]
    while r1:
        q, rem = _divmod_poly(r0, r1)
        r0, r1 = r1, rem
        # u_next = u0 - q*u1
        prod = [Rational(0)] * (len(q) + len(u1) - 1) if q and u1 else []
        for i, qc in enumerate(q):
            for j, uc in enumerate(u1):
                prod[i + j] += qc * uc
        nxt = [Rational(0)] * max(len(u0), len(prod))
        for i, c in enumerate(u0):
            nxt[i] += c
        for i, c in enumerate(prod):
            nxt[i] -= c
        u0, u1 = u1, _trim(nxt)
    lead = r0[-1]
    return [c / lead for c in r0], [c / lead for c in u0]


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
        return format_rational(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def format_rational(r) -> str:
    return str(r) if r.denominator != 1 else str(r.numerator)


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
        coeffs = _trim([Rational(c) for c in minpoly])
        if len(coeffs) < 3:
            raise ValueError("minimal polynomial must have degree >= 2")
        if coeffs[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        g = _gcd_poly(coeffs, _deriv(coeffs))
        if len(g) != 1:
            raise ValueError("minimal polynomial must be squarefree")
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
        acoeffs = _trim(list(a.coeffs))
        g, u = _ext_euclid(acoeffs, list(self.minpoly))
        if len(g) != 1:
            raise DivisionByZero(
                "non-invertible element; the minimal polynomial is reducible")
        u += [Rational(0)] * (self.degree - len(u))
        return ExtElement(self, u[: self.degree])

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
        parts = []
        for k in range(self.degree - 1, -1, -1):
            c = a.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                mono = format_rational(c)
            else:
                var = self.generator_name if k == 1 else f"{self.generator_name}^{k}"
                if c == 1:
                    mono = var
                elif c == -1:
                    mono = f"-{var}"
                else:
                    mono = f"{format_rational(c)}*{var}"
            if parts and not mono.startswith("-"):
                parts.append("+" + mono)
            else:
                parts.append(mono)
        return "".join(parts) if parts else "0"

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.minpoly == other.minpoly
                and self.generator_name == other.generator_name)

    def __hash__(self):
        return hash((self.minpoly, self.generator_name))

    def __repr__(self):
        from .linalg import format_univariate
        return f"QQ[{self.generator_name}]/({format_univariate(self.minpoly, self.generator_name)})"


Field = RationalField | NumberField


def check_same_field(a: Field, b: Field):
    if a != b:
        raise FieldMismatch(f"mixed coefficient fields: {a!r} vs {b!r}")
