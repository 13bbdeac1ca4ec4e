"""The three separate printers the package used before `field.format_terms`
took over the one printing rule; kept as the reference the merged printer
must reproduce character for character.

`format_scalar` stands in for `field.format_scalar` of either field,
`format_univariate` for `field.format_univariate` (formerly in `linalg`)
and `format_polynomial` for `poly.format_polynomial`.
"""

from curveforms.field import NumberField
from curveforms.poly import GREVLEX


def format_rational(r) -> str:
    return str(r) if r.denominator != 1 else str(r.numerator)


def format_scalar(field, a) -> str:
    if not isinstance(field, NumberField):
        return format_rational(a)
    parts = []
    for k in range(field.degree - 1, -1, -1):
        c = a.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            mono = format_rational(c)
        else:
            var = field.generator_name if k == 1 else f"{field.generator_name}^{k}"
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


def format_univariate(coeffs, var, field) -> str:
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if field.is_zero(c) if not isinstance(c, int) else c == 0:
            continue
        cs = format_scalar(field, c) if not isinstance(c, int) else str(c)
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


def _format_monomial(mono) -> str:
    i, j = mono
    parts = []
    if i:
        parts.append("x" if i == 1 else f"x^{i}")
    if j:
        parts.append("y" if j == 1 else f"y^{j}")
    return "*".join(parts)


def format_polynomial(p) -> str:
    if not p.terms:
        return "0"
    pieces = []
    for mono in sorted(p.terms, key=GREVLEX.key, reverse=True):
        coeff = p.terms[mono]
        cs = format_scalar(p.field, coeff)
        compound = any(ch in cs[1:] for ch in "+-")
        mstr = _format_monomial(mono)
        if compound:
            body = f"({cs})*{mstr}" if mstr else f"({cs})"
            sign = "+"
        else:
            sign = "-" if cs.startswith("-") else "+"
            mag = cs[1:] if cs.startswith("-") else cs
            if not mstr:
                body = mag
            elif mag == "1":
                body = mstr
            else:
                body = f"{mag}*{mstr}"
        if not pieces:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f"{sign}{body}")
    return "".join(pieces)
