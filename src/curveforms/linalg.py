"""Univariate polynomials over the coefficient field, and the dense matrix
reference.

UniPoly carries the squarefree-decomposition machinery; its gcd runs on the
Groebner engine's integer coding.  No eigenvectors are ever computed.

The pipeline runs no dense linear algebra.  What is left of it here --
`Matrix` with `zeros`, `identity`, `scale`, `__mul__`, `is_square` and a
fraction-free (Bareiss) `rank`, `sequence_annihilator`, `matrix_min_poly`
and `UniPoly.eval_matrix` -- works over field scalars, on whole matrices
and their powers.  bench/tracing.py wraps `matrix_min_poly`, `Matrix.rank`,
`Matrix.__mul__` and `UniPoly.eval_matrix` by name, which pins these names;
the rest of the dense toolkit lives in tests/dense_oracle.py.
"""

from __future__ import annotations

from typing import Sequence

from . import groebner
from .errors import DivisionByZero, NotSquare, ZeroInput
from .field import QQ, Field, check_same_field, format_univariate
from .poly import TermOrder


class Matrix:
    """Rectangular matrix with exact field entries, row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries: Sequence[Sequence]):
        self.field = field
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        for k in range(n):
            m.entries[k][k] = field.one
        return m

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, [[a * c for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            check_same_field(self.field, other.field)
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            cols = list(zip(*other.entries))
            return Matrix(self.field, [[sum((a * b for a, b in zip(row, col)), self.field.zero)
                                        for col in cols] for row in self.entries])
        return self.scale(other)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def rank(self) -> int:
        """Rank via fraction-free Gaussian elimination."""
        m = [list(row) for row in self.entries]
        rows, cols = self.rows, self.cols
        zero = self.field.is_zero
        prev = self.field.one
        r = 0
        for c in range(cols):
            if r == rows:
                break
            pivot_row = next((k for k in range(r, rows) if not zero(m[k][c])), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            pivot = m[r][c]
            for k in range(r + 1, rows):
                for j in range(c + 1, cols):
                    m[k][j] = (pivot * m[k][j] - m[k][c] * m[r][j]) / prev
                m[k][c] = self.field.zero
            prev = pivot
            r += 1
        return r


# ---------------------------------------------------------------------------
# univariate polynomials over the field

class UniPoly:
    """Univariate polynomial; coefficients ascending, no trailing zeros."""

    __slots__ = ("field", "coeffs")

    def __init__(self, coeffs: Sequence, field: Field = QQ):
        c = [x if not isinstance(x, int) else field.from_int(x) for x in coeffs]
        while c and field.is_zero(c[-1]):
            c.pop()
        self.field = field
        self.coeffs = tuple(c)

    @classmethod
    def zero(cls, field: Field = QQ):
        return cls((), field)

    @classmethod
    def one(cls, field: Field = QQ):
        return cls((1,), field)

    @classmethod
    def t(cls, field: Field = QQ):
        return cls((0, 1), field)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ZeroInput("cannot normalize the zero polynomial")
        inv = 1 / self.coeffs[-1]
        return UniPoly([c * inv for c in self.coeffs], self.field)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        check_same_field(self.field, other.field)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] = a[k] + c
        return UniPoly(a, self.field)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs], self.field)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            check_same_field(self.field, other.field)
            if self.is_zero() or other.is_zero():
                return UniPoly.zero(self.field)
            z = self.field.zero
            out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if self.field.is_zero(a):
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return UniPoly(out, self.field)
        return UniPoly([c * other for c in self.coeffs], self.field)

    def divmod(self, other: "UniPoly"):
        check_same_field(self.field, other.field)
        if other.is_zero():
            raise DivisionByZero("univariate division by zero")
        rem = list(self.coeffs)
        z = self.field.zero
        q = [z] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = 1 / other.coeffs[-1]
        zero = self.field.is_zero
        while len(rem) >= len(other.coeffs):
            if zero(rem[-1]):
                rem.pop()
                continue
            k = len(rem) - len(other.coeffs)
            coeff = rem[-1] * inv_lead
            q[k] = coeff
            for i, bc in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - coeff * bc
            rem.pop()
        return UniPoly(q, self.field), UniPoly(rem, self.field)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def _coded(self):
        """(coding, key, vector): a coded multiple of self, t^k coded as the
        engine term x^k."""
        coding, key = groebner._coding(self.field), groebner.ModuleOrder(TermOrder()).key
        vec = coding.encode({key((0, k, 0)): c for k, c in enumerate(self.coeffs) if c})[0]
        return coding, key, vec

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        """Quotient of an exact division."""
        q, rem = self.divmod(other)
        if not rem.is_zero():
            raise ValueError("division is not exact")
        return q

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd by primitive pseudo-remainders: t^k is the engine term
        x^k, and the kernel's division by one normalized vector is a
        pseudo-division with the content removed."""
        check_same_field(self.field, other.field)
        coding, key, a = self._coded()
        b = other._coded()[2]
        while b:
            b = coding.normalized(b, max(b))
            a, b = b, groebner._normal_form_core(a, [b], [max(b)], False, coding)[0]
        if a:
            a = groebner._public(coding.normalized(a, max(a)), max(a), coding)
        return UniPoly([a.get(key((0, k, 0)), self.field.zero)
                        for k in range(len(self.coeffs) + len(other.coeffs))], self.field)

    def derivative(self) -> "UniPoly":
        return UniPoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))],
                       self.field)

    def eval_matrix(self, m: Matrix) -> Matrix:
        """Horner evaluation at a square matrix."""
        if not m.is_square():
            raise NotSquare("matrix polynomial evaluation needs a square matrix")
        total = Matrix.zeros(self.field, m.rows, m.rows)
        for c in reversed(self.coeffs):
            total = total * m
            for k in range(m.rows):
                total.entries[k][k] = total.entries[k][k] + c
        return total

    def root_multiplicity_at_zero(self) -> int:
        if self.is_zero():
            raise ZeroInput("zero polynomial")
        for k, c in enumerate(self.coeffs):
            if not self.field.is_zero(c):
                return k
        raise AssertionError("unreachable")

    def shift_down(self, k: int = 1) -> "UniPoly":
        """Exact division by t^k."""
        if any(not self.field.is_zero(c) for c in self.coeffs[:k]):
            raise ValueError("not divisible by t^k")
        return UniPoly(self.coeffs[k:], self.field)

    def squarefree_decompose(self):
        """Yun's algorithm; list of (monic squarefree factor, multiplicity)."""
        if self.is_zero():
            raise ZeroInput("cannot decompose the zero polynomial")
        p = self.monic()
        if p.degree() == 0:
            return []
        g = p.gcd(p.derivative())
        if g.degree() == 0:
            # a monic p coprime to p' has no repeated root: it is squarefree
            return [(p, 1)]
        out, i = [], 1
        w = p.exact_div(g)
        z = p.derivative().exact_div(g) - w.derivative()
        while w.degree() > 0:
            gi = w.gcd(z)
            if gi.degree() > 0:
                out.append((gi, i))
            w = w.exact_div(gi)
            z = z.exact_div(gi) - w.derivative()
            i += 1
        return out

    def __str__(self):
        return format_univariate(self.coeffs, "t", self.field)

    __repr__ = __str__


def sequence_annihilator(field: Field, vectors) -> UniPoly:
    """Monic c with sum c_i * v_i = 0, where v_k is the first vector of
    ``vectors`` that depends linearly on v_0, ..., v_{k-1}.

    Every vector is reduced against an incremental echelon form whose rows
    carry their expression in the earlier vectors; the first vector that
    reduces to zero yields the coefficients exactly.  For the sequence v,
    Av, A^2 v, ... the result is the annihilator of v under A.
    """
    zero = field.is_zero
    echelon = []  # list of (pivot index, row list, expr list)
    for k, vec in enumerate(vectors):
        expr = [field.zero] * k + [field.one]
        for pivot, row, rexpr in echelon:
            c = vec[pivot]
            if not zero(c):
                vec = [a - c * b for a, b in zip(vec, row)]
                for idx, e in enumerate(rexpr):
                    expr[idx] = expr[idx] - c * e
        lead = next((idx for idx, a in enumerate(vec) if not zero(a)), None)
        if lead is None:
            # earlier rows carry no v_k term, so expr[k] is still one
            return UniPoly(expr, field)
        inv = 1 / vec[lead]
        echelon.append((lead, [a * inv for a in vec], [e * inv for e in expr]))
    raise AssertionError("the vectors admit no linear dependence")


def matrix_min_poly(m: Matrix) -> UniPoly:
    """Monic minimal polynomial via linear dependence among I, M, M^2, ...

    Powers are flattened to n^2-long vectors; the dense reference for the
    Krylov minimal polynomial of the Milnor layer.
    """
    if not m.is_square():
        raise NotSquare("minimal polynomial needs a square matrix")
    n = m.rows

    def flat_powers():
        power = Matrix.identity(m.field, n)
        for _ in range(n + 1):
            yield [a for row in power.entries for a in row]
            power = power * m

    return sequence_annihilator(m.field, flat_powers())
