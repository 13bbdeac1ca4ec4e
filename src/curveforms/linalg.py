"""Exact dense linear algebra over the coefficient field.

Rank uses fraction-free (Bareiss) elimination; kernels come from reduced
row echelon form.  `sequence_annihilator` finds the first linear dependence
in a sequence of vectors by an incremental echelon solve; the Milnor layer
feeds it the Krylov sequence [1], [f], [f^2], ... of its algebra.
Univariate polynomials carry the squarefree-decomposition machinery.  No
eigenvectors are ever computed.

`matrix_min_poly`, `UniPoly.eval_matrix` and `Matrix.__mul__` work on whole
matrices and powers of them; the pipeline no longer calls them, and they
are kept as the dense reference that the tests compare against.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DivisionByZero, NotSquare, ZeroInput
from .field import QQ, Field, check_same_field


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

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence]) -> "Matrix":
        if not columns:
            return cls(field, [])
        rows = len(columns[0])
        return cls(field, [[col[r] for col in columns] for r in range(rows)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def scale(self, c) -> "Matrix":
        return Matrix(self.field, [[a * c for a in row] for row in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            check_same_field(self.field, other.field)
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            zero = self.field.zero
            bt = list(zip(*other.entries)) if other.entries else []
            out = []
            for row in self.entries:
                out_row = []
                for col in bt:
                    s = zero
                    for a, b in zip(row, col):
                        s = s + a * b
                    out_row.append(s)
                out.append(out_row)
            return Matrix(self.field, out)
        return self.scale(other)

    def apply(self, vec: Sequence):
        """Matrix-vector product; zero coordinates and entries are skipped."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        is_zero = self.field.is_zero
        support = [(j, v) for j, v in enumerate(vec) if not is_zero(v)]
        zero = self.field.zero
        out = []
        for row in self.entries:
            s = zero
            for j, v in support:
                a = row[j]
                if not is_zero(a):
                    s = s + a * v
            out.append(s)
        return out

    def is_zero(self) -> bool:
        z = self.field.is_zero
        return all(z(a) for row in self.entries for a in row)

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

    def rref(self):
        """Reduced row echelon form; returns (matrix rows, pivot columns)."""
        m = [list(row) for row in self.entries]
        rows, cols = self.rows, self.cols
        zero = self.field.is_zero
        pivots = []
        r = 0
        for c in range(cols):
            if r == rows:
                break
            pivot_row = next((k for k in range(r, rows) if not zero(m[k][c])), None)
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = 1 / m[r][c]
            m[r] = [a * inv for a in m[r]]
            for k in range(rows):
                if k != r and not zero(m[k][c]):
                    factor = m[k][c]
                    m[k] = [a - factor * b for a, b in zip(m[k], m[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def kernel_basis(self):
        """Exact basis of the null space; length = cols - rank."""
        m, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        zero, one = self.field.zero, self.field.one
        for fc in free:
            vec = [zero] * self.cols
            vec[fc] = one
            for r, pc in enumerate(pivots):
                vec[pc] = -m[r][fc]
            basis.append(vec)
        return basis

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format_scalar(a) for a in row)
                         for row in self.entries)
        return f"<Matrix {self.rows}x{self.cols} [{body}]>"


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

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

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
        check_same_field(self.field, other.field)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] = a[k] - c
        return UniPoly(a, self.field)

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

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "UniPoly":
        return UniPoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))],
                       self.field)

    def eval_scalar(self, value):
        total = self.field.zero
        for c in reversed(self.coeffs):
            total = total * value + c
        return total

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
        out = []
        g = p.gcd(p.derivative())
        w = p.exact_div(g)
        y = p.derivative().exact_div(g)
        z = y - w.derivative()
        i = 1
        while w.degree() > 0:
            gi = w.gcd(z)
            if gi.degree() > 0:
                out.append((gi, i))
            w = w.exact_div(gi)
            y = z.exact_div(gi)
            z = y - w.derivative()
            i += 1
        return out

    def __str__(self):
        return format_univariate(self.coeffs, "t", self.field)

    __repr__ = __str__


def format_univariate(coeffs, var: str = "t", field: Field = QQ) -> str:
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if field.is_zero(c) if not isinstance(c, int) else c == 0:
            continue
        cs = field.format_scalar(c) if not isinstance(c, int) else str(c)
        compound = any(ch in cs[1:] for ch in "+-")
        if k == 0:
            body = f"({cs})" if compound else cs
            sign = "+" if compound or not cs.startswith("-") else "-"
            mag = body if compound else (cs[1:] if cs.startswith("-") else cs)
        else:
            mono = var if k == 1 else f"{var}^{k}"
            if compound:
                sign, mag = "+", f"({cs})*{mono}"
            else:
                sign = "-" if cs.startswith("-") else "+"
                c_abs = cs[1:] if cs.startswith("-") else cs
                mag = mono if c_abs == "1" else f"{c_abs}*{mono}"
        if not parts:
            parts.append(mag if sign == "+" else f"-{mag}")
        else:
            parts.append(f"{sign}{mag}")
    return "".join(parts) if parts else "0"


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
