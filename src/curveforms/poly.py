"""Sparse bivariate polynomials over an exact field, with weighted monomial
orders, module vectors (differential 1-forms among them), the wedge of two
1-forms as its dx^dy coefficient, and a text grammar.

Monomials are plain ``(i, j)`` exponent pairs.  The term order used
throughout is weighted degree first, ties broken reverse-lexicographically
with x > y; it is degree-compatible for any positive weights.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence

from .errors import (InvalidInput, PolySyntaxError, RankMismatch, UnknownSymbol,
                     ZeroInput)
from .field import (QQ, ExtElement, Field, NumberField, Rational,
                    check_same_field, format_terms)

NEG_INFINITY = float("-inf")

# parser guards: larger exponents are certainly a mistake, and a power may
# expand to no more terms than this bound (the smaller of comb(n+k-1, n) for
# a k-term base and the exponent grid it spans)
MAX_EXPONENT = 1 << 20
MAX_POWER_TERMS = 1 << 8


class Weights(NamedTuple):
    alpha1: int = 1
    alpha2: int = 1

    @classmethod
    def of(cls, alpha1: int, alpha2: int) -> "Weights":
        if not all(isinstance(a, int) and a >= 1 for a in (alpha1, alpha2)):
            raise InvalidInput("weights must be positive integers")
        return cls(int(alpha1), int(alpha2))


class TermOrder:
    """Weighted-degree order with reverse-lexicographic tie break, x > y."""

    __slots__ = ("weights",)

    def __init__(self, weights: Weights = Weights(1, 1)):
        self.weights = Weights.of(*weights)

    def key(self, mono):
        i, j = mono
        return (i * self.weights.alpha1 + j * self.weights.alpha2, -j)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return f"TermOrder(weights={tuple(self.weights)})"


GREVLEX = TermOrder()


class Polynomial:
    """Immutable sparse polynomial; ``terms`` maps (i, j) to nonzero scalars."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms=None):
        self.field = field
        if terms:
            self.terms = {m: c for m, c in terms.items() if not field.is_zero(c)}
        else:
            self.terms = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field = QQ) -> "Polynomial":
        return cls(field)

    @classmethod
    def constant(cls, value, field: Field = QQ) -> "Polynomial":
        if isinstance(value, int):
            value = field.from_int(value)
        elif isinstance(value, ExtElement):
            field = value.field
        else:
            value = field.from_rational(value)
        return cls(field, {(0, 0): value})

    @classmethod
    def variable(cls, name: str, field: Field = QQ) -> "Polynomial":
        if name == "x":
            return cls(field, {(1, 0): field.one})
        if name == "y":
            return cls(field, {(0, 1): field.one})
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def term(cls, coeff, mono, field: Field = QQ) -> "Polynomial":
        return cls(field, {tuple(mono): coeff})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or self.terms.keys() == {(0, 0)}

    def constant_value(self):
        if not self.terms:
            return self.field.zero
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[(0, 0)]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        check_same_field(self.field, other.field)

    def _like(self, terms) -> "Polynomial":
        """A polynomial over this field with the given terms, unchecked."""
        p = Polynomial.__new__(Polynomial)
        p.field, p.terms = self.field, terms
        return p

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        zero = self.field.is_zero
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return self._like(out)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            out = {}
            zero = self.field.is_zero
            a, b = self.terms, other.terms
            if len(a) > len(b):
                a, b = b, a
            for (i1, j1), c1 in a.items():
                for (i2, j2), c2 in b.items():
                    m = (i1 + i2, j1 + j2)
                    s = out.get(m)
                    prod = c1 * c2
                    s = prod if s is None else s + prod
                    if zero(s):
                        out.pop(m, None)
                    else:
                        out[m] = s
            return self._like(out)
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        if isinstance(other, (Rational, ExtElement)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, coeff) -> "Polynomial":
        if self.field.is_zero(coeff):
            return Polynomial(self.field)
        return self._like({m: c * coeff for m, c in self.terms.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            return Polynomial.constant(1, self.field)
        # left to right from the first set bit: one squaring per later bit
        result = self
        for bit in bin(n)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- degrees and leading data -------------------------------------------

    def total_degree(self):
        if not self.terms:
            return NEG_INFINITY
        return max(i + j for i, j in self.terms)

    def weighted_degree(self, weights: Weights):
        if not self.terms:
            return NEG_INFINITY
        a1, a2 = weights
        return max(i * a1 + j * a2 for i, j in self.terms)

    def leading_form(self, weights: Weights) -> "Polynomial":
        """Sum of the terms of maximal weighted degree."""
        if not self.terms:
            raise ZeroInput("the zero polynomial has no leading form")
        a1, a2 = weights
        d = self.weighted_degree(weights)
        return Polynomial(self.field,
                          {m: c for m, c in self.terms.items()
                           if m[0] * a1 + m[1] * a2 == d})

    def is_homogeneous(self, weights: Weights) -> bool:
        if not self.terms:
            return True
        a1, a2 = weights
        degrees = {i * a1 + j * a2 for i, j in self.terms}
        return len(degrees) == 1

    # -- calculus -----------------------------------------------------------

    def diff(self, var: str) -> "Polynomial":
        out = {}
        if var == "x":
            for (i, j), c in self.terms.items():
                if i:
                    out[(i - 1, j)] = c * i
        elif var == "y":
            for (i, j), c in self.terms.items():
                if j:
                    out[(i, j - 1)] = c * j
        else:
            raise ValueError(f"unknown variable {var!r}")
        return Polynomial(self.field, out)

    def substitute(self, px: "Polynomial", py: "Polynomial") -> "Polynomial":
        """Exact composition p(px, py)."""
        self._check(px)
        self._check(py)
        xpow = {0: Polynomial.constant(1, self.field)}
        ypow = {0: Polynomial.constant(1, self.field)}

        def power(cache, base, n):
            if n not in cache:
                cache[n] = power(cache, base, n - 1) * base
            return cache[n]

        total = Polynomial(self.field)
        for (i, j), c in sorted(self.terms.items()):
            total = total + power(xpow, px, i) * power(ypow, py, j).scale(c)
        return total

    def evaluate_float(self, x: float, y: float, embedding=None) -> float:
        """Approximate value; never used in exact computations."""
        total = 0.0
        for (i, j), c in self.terms.items():
            total += self.field.embed_float(c, embedding) * (x ** i) * (y ** j)
        return total

    # -- printing -----------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<Polynomial {self}>"


# ---------------------------------------------------------------------------
# module vectors and differential forms


class ModuleVector:
    """Fixed-rank vector of polynomials over one field.  Arithmetic keeps
    the class of the vector operand, so sums and multiples of forms are
    forms again."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("empty module vector")
        for c in components[1:]:
            check_same_field(components[0].field, c.field)
        self.components = components

    @classmethod
    def wrap(cls, obj) -> "ModuleVector":
        if isinstance(obj, ModuleVector):
            return obj
        if isinstance(obj, Polynomial):
            return cls((obj,))
        return cls(tuple(obj))

    def _like(self, components):
        v = object.__new__(type(self))
        v.components = components
        return v

    @property
    def rank(self) -> int:
        return len(self.components)

    @property
    def field(self):
        return self.components[0].field

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatch("vector ranks differ")
        return self._like(tuple(a + b for a, b in
                                zip(self.components, other.components)))

    def __sub__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._like(tuple(-a for a in self.components))

    def __mul__(self, other):
        """Multiple by a polynomial or a scalar, from either side."""
        if not isinstance(other, (Polynomial, int, Rational, ExtElement)):
            return NotImplemented
        return self._like(tuple(a * other for a in self.components))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ModuleVector):
            return NotImplemented
        return self.components == other.components

    def total_degree(self):
        return max(c.total_degree() for c in self.components)

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    __repr__ = __str__


class OneForm(ModuleVector):
    """P dx + Q dy, the rank-2 vector (P, Q)."""

    __slots__ = ()

    def __init__(self, P: Polynomial, Q: Polynomial):
        super().__init__((P, Q))

    @property
    def P(self) -> Polynomial:
        return self.components[0]

    @property
    def Q(self) -> Polynomial:
        return self.components[1]

    def __str__(self):
        return format_one_form(self)

    __repr__ = __str__


def wedge(u: OneForm, v: OneForm) -> Polynomial:
    """The coefficient c of u ^ v = c dx^dy.  Convention:
    (P dx + Q dy) ^ (R dx + S dy) = (P S - Q R) dx^dy."""
    check_same_field(u.field, v.field)
    return u.P * v.Q - u.Q * v.P


def exterior_derivative(p: Polynomial) -> OneForm:
    return OneForm(p.diff("x"), p.diff("y"))


def pullback(form: OneForm, px: Polynomial, py: Polynomial) -> OneForm:
    """Pull a 1-form back along the map (x, y) -> (px, py)."""
    P = form.P.substitute(px, py)
    Q = form.Q.substitute(px, py)
    return OneForm(P * px.diff("x") + Q * py.diff("x"),
                   P * px.diff("y") + Q * py.diff("y"))


# ---------------------------------------------------------------------------
# parsing
#
#   expr   := ('+'|'-')? term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := base ('^' natural)?
#   base   := rational | 'x' | 'y' | generator | '(' expr ')'
#
# Whitespace is ignored; implicit multiplication is rejected.  A leading
# sign is accepted so that printed polynomials round-trip.

_SYMBOL_CHARS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"


def _tokenize(text: str):
    tokens = []
    k, n = 0, len(text)
    while k < n:
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if "0" <= ch <= "9":  # not str.isdigit(), which takes superscripts too
            start = k
            while k < n and "0" <= text[k] <= "9":
                k += 1
            tokens.append(("int", text[start:k], start))
            continue
        if ch in _SYMBOL_CHARS:
            start = k
            while k < n and (text[k] in _SYMBOL_CHARS or "0" <= text[k] <= "9"):
                k += 1
            tokens.append(("sym", text[start:k], start))
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, k))
            k += 1
            continue
        raise PolySyntaxError(f"unexpected character {ch!r}", k)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent into a Polynomial; the names in ``var_names`` stand
    for x and y in turn, so a univariate text parses into powers of x."""

    def __init__(self, text: str, field: Field, var_names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.vars = {name: Polynomial.variable(xy, field)
                     for name, xy in zip(var_names, "xy")}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise PolySyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self):
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.advance()[0] == "-" else 1
        total = self.parse_term()
        if sign < 0:
            total = -total
        while self.peek()[0] in "+-":
            op = self.advance()[0]
            term = self.parse_term()
            total = total - term if op == "-" else total + term
        return total

    def parse_term(self):
        total = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            total = total * self.parse_factor()
        return total

    def parse_factor(self):
        base = self.parse_base()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            n = int(tok[1])
            if n > MAX_EXPONENT:
                raise PolySyntaxError(f"exponent {n} too large", tok[2])
            k, terms = len(base.terms), base.terms
            if k > 1 and min(comb(n + k - 1, n),
                             (n * max(i for i, _ in terms) + 1)
                             * (n * max(j for _, j in terms) + 1)) > MAX_POWER_TERMS:
                raise PolySyntaxError(f"power ^{n} expands too far", tok[2])
            base = base ** n
        return base

    def parse_base(self):
        kind, value, pos = self.advance()
        if kind == "int":
            num = int(value)
            if self.peek()[0] == "/":
                self.advance()
                den = int(self.expect("int")[1])
                if den == 0:
                    raise PolySyntaxError("zero denominator", pos)
                return Polynomial.constant(Rational(num, den), self.field)
            return Polynomial.constant(num, self.field)
        if kind == "sym":
            if value in self.vars:
                return self.vars[value]
            if (isinstance(self.field, NumberField)
                    and value == self.field.generator_name):
                return Polynomial.constant(self.field.generator, self.field)
            raise UnknownSymbol(f"unknown symbol {value!r}", pos)
        if kind == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise PolySyntaxError(f"unexpected token {value!r}", pos)

    def run(self):
        result = self.parse_expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolySyntaxError(f"trailing input {tok[1]!r}", tok[2])
        return result


def parse_polynomial(text: str, field: Field = QQ) -> Polynomial:
    """Parse the grammar above into an exact polynomial in x and y."""
    return _Parser(text, field, ("x", "y")).run()


def parse_scalar(text: str, field: Field = QQ):
    """Parse a constant expression (no x, y) into a field element."""
    return _Parser(text, field, ()).run().terms.get((0, 0), field.zero)


def parse_univariate(text: str, var: str = "z"):
    """Parse a univariate polynomial over Q; returns ascending coefficients."""
    terms = _Parser(text, QQ, (var,)).run().terms
    deg = max((i for i, _ in terms), default=-1)
    return tuple(terms.get((k, 0), Rational(0)) for k in range(deg + 1))


def field_from_minpoly(text: str, generator_name: str = "z") -> NumberField:
    """Build Q[z]/(m(z)) from the textual minimal polynomial."""
    return NumberField(parse_univariate(text, generator_name), generator_name)


# ---------------------------------------------------------------------------
# printing

def _format_monomial(mono) -> str:
    i, j = mono
    xs = "x" if i == 1 else f"x^{i}" if i else ""
    if not j:
        return xs
    ys = "y" if j == 1 else f"y^{j}"
    return f"{xs}*{ys}" if xs else ys


def format_polynomial(p: Polynomial) -> str:
    """Canonical text; terms in descending grevlex order; re-parseable."""
    terms = p.terms
    return format_terms([(_format_monomial(m), terms[m])
                         for m in sorted(terms, key=GREVLEX.key, reverse=True)],
                        p.field.format_scalar)


def format_one_form(w: OneForm) -> str:
    return f"[{format_polynomial(w.P)}] dx + [{format_polynomial(w.Q)}] dy"
