"""Extension scalars as a tuple of rational coordinates, the coding
curveforms used before its integer one; the oracle of tests/test_field_oracle.py.

An element of Q[z]/(m) is the tuple of its coordinates on 1, z, ..,
z^(n-1), and every operation is done coordinate by coordinate in
`Rational`s, a product reduced with the rows z^(n+k) mod m.  It prints with
the package's own printer, so a printing difference shows as a coordinate
difference.  Its hash is the rational constant's for an element whose
non-constant coordinates are zero, so that elements equal to an int or a
`Rational` hash like them.
"""

from curveforms.errors import DivisionByZero, FieldMismatch
from curveforms.field import Rational, format_univariate


class OracleField:
    """Q[z]/(m) for a monic m given by its ascending rational coefficients."""

    def __init__(self, minpoly, generator_name="z"):
        coeffs = [Rational(c) for c in minpoly]
        self.minpoly = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self.generator_name = generator_name
        # powers z^(degree+k) reduced mod m, for products of degree <= 2*degree-2
        self.high_powers = []
        current = [-c for c in coeffs[:-1]]
        for _ in range(self.degree - 1):
            self.high_powers.append(tuple(current))
            current = [Rational(0)] + current
            lead = current.pop()
            if lead != 0:
                for i in range(self.degree):
                    current[i] -= lead * coeffs[i]

    def element(self, coeffs):
        c = [Rational(v) for v in coeffs]
        return OracleElement(self, c + [Rational(0)] * (self.degree - len(c)))

    def from_rational(self, r):
        return self.element([r])

    @property
    def one(self):
        return self.element([1])

    def mul(self, a, b):
        n = self.degree
        prod = [Rational(0)] * (2 * n - 1)
        for i, ai in enumerate(a.coeffs):
            for j, bj in enumerate(b.coeffs):
                prod[i + j] += ai * bj
        out = prod[:n]
        for k in range(n, 2 * n - 1):
            for i in range(n):
                out[i] += prod[k] * self.high_powers[k - n][i]
        return OracleElement(self, out)

    def inv(self, a):
        """Solve a * x == 1 by Gauss-Jordan on the multiplication matrix."""
        if not a:
            raise DivisionByZero("inverse of zero")
        n = self.degree
        basis = [self.element([0] * k + [1]) for k in range(n)]
        columns = [self.mul(a, e).coeffs for e in basis]
        rows = [[columns[j][i] for j in range(n)] + [Rational(1 if i == 0 else 0)]
                for i in range(n)]
        for col in range(n):
            piv = next(r for r in range(col, n) if rows[r][col] != 0)
            rows[col], rows[piv] = rows[piv], rows[col]
            p = rows[col][col]
            rows[col] = [x / p for x in rows[col]]
            for r in range(n):
                if r != col and rows[r][col] != 0:
                    f = rows[r][col]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
        return OracleElement(self, [rows[i][n] for i in range(n)])


class OracleElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, OracleElement):
            if other.field is not self.field:
                raise FieldMismatch("elements over different fields")
            return other
        if isinstance(other, (int, Rational)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return OracleElement(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return OracleElement(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return OracleElement(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        return self.field.mul(self, self._coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.field.mul(self, self.field.inv(self._coerce(other)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            return self.field.inv(self) ** (-n)
        result = self.field.one
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, OracleElement):
            return self.field is other.field and self.coeffs == other.coeffs
        if isinstance(other, (int, Rational)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return NotImplemented

    def __hash__(self):
        if any(self.coeffs[1:]):
            return hash(self.coeffs)
        return hash(self.coeffs[0])

    def __bool__(self):
        return any(c != 0 for c in self.coeffs)

    def __repr__(self):
        return format_univariate(self.coeffs, self.field.generator_name)
