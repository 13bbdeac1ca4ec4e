"""End-to-end pipeline: tameness, Milnor data, kernel witness, generating
sets, minimality and the freeness verdict, assembled into one report.

The JSON document is bit-for-bit reproducible for a fixed input: polynomials
are serialized through the canonical printer and wall-clock timings are kept
out of it (they appear in the text rendering only).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

from . import milnor, tangent
from .field import Field, NumberField, format_univariate
from .linalg import UniPoly
from .poly import (OneForm, Polynomial, TermOrder, Weights, format_one_form,
                   format_polynomial)


def _form_dict(w: OneForm):
    return {"P": format_polynomial(w.P), "Q": format_polynomial(w.Q)}


def _field_dict(field: Field):
    if isinstance(field, NumberField):
        return {"kind": "extension",
                "minpoly": format_univariate(field.minpoly, field.generator_name),
                "generator": field.generator_name}
    return {"kind": "rationals"}


@dataclass
class AnalysisReport:
    f: Polynomial
    weights: Weights
    tame: bool
    leading_form: Optional[Polynomial] = None
    not_tame_reason: Optional[str] = None
    mu: Optional[int] = None
    tau: Optional[int] = None
    min_poly: Optional[UniPoly] = None
    exponent: Optional[int] = None
    critical_factors: list = dc_field(default_factory=list)
    jordan: list = dc_field(default_factory=list)
    kernel_condition: Optional[bool] = None
    theta: Optional[Polynomial] = None
    omega: Optional[OneForm] = None
    quasi_homogeneous: Optional[dict] = None
    trivial: list = dc_field(default_factory=list)
    four: Optional[list] = None
    syzygy_count: Optional[int] = None
    minimal: list = dc_field(default_factory=list)
    generation: Optional[dict] = None
    saito: Optional[dict] = None
    warnings: list = dc_field(default_factory=list)
    timings: dict = dc_field(default_factory=dict)

    def to_dict(self):
        doc = {
            "input": {
                "f": format_polynomial(self.f),
                "weights": list(self.weights),
                "field": _field_dict(self.f.field),
            },
            "tame": self.tame,
        }
        if self.leading_form is not None:
            doc["leading_form"] = format_polynomial(self.leading_form)
        if not self.tame:
            doc["reason"] = self.not_tame_reason
        if self.mu is not None:
            doc["mu"] = self.mu
            doc["tau"] = self.tau
        if self.min_poly is not None:
            doc["min_poly"] = str(self.min_poly)
            doc["exponent"] = self.exponent
            doc["critical_factors"] = [
                {"factor": str(cfac.factor),
                 "multiplicity": cfac.multiplicity,
                 "roots": [self.f.field.format_scalar(r) for r in cfac.roots]}
                for cfac in self.critical_factors]
            doc["jordan"] = [
                {"factor": str(jp.factor),
                 "blocks": {str(size): count
                            for size, count in sorted(jp.blocks.items())}}
                for jp in self.jordan]
        if self.kernel_condition is not None:
            doc["kernel_condition"] = self.kernel_condition
        if self.theta is not None:
            doc["theta"] = format_polynomial(self.theta)
        if self.omega is not None:
            doc["omega"] = _form_dict(self.omega)
        if self.quasi_homogeneous is not None:
            doc["quasi_homogeneous"] = self.quasi_homogeneous
        doc["generators"] = {
            "trivial": [_form_dict(w) for w in self.trivial],
            "four": None if self.four is None else [_form_dict(w) for w in self.four],
            "syzygy_count": self.syzygy_count,
            "minimal": [_form_dict(w) for w in self.minimal],
            "minimal_count": len(self.minimal),
        }
        if self.generation is not None:
            doc["generation"] = self.generation
        if self.saito is not None:
            doc["saito"] = self.saito
        doc["warnings"] = list(self.warnings)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"f = {format_polynomial(self.f)}",
                 f"weights = {tuple(self.weights)}",
                 f"field: {_field_dict(self.f.field)}",
                 f"tame: {self.tame}"]
        if self.leading_form is not None:
            lines.append(f"leading form: {format_polynomial(self.leading_form)}")
        if not self.tame:
            lines.append(f"reason: {self.not_tame_reason}")
        if self.mu is not None:
            lines.append(f"mu = {self.mu}")
            lines.append(f"tau = {self.tau}")
        if self.min_poly is not None:
            lines.append(f"minimal polynomial: {self.min_poly}")
            lines.append(f"exponent: {self.exponent}")
            for cfac in self.critical_factors:
                roots = ", ".join(self.f.field.format_scalar(r) for r in cfac.roots)
                extra = f" (roots: {roots})" if roots else ""
                lines.append(
                    f"  factor ({cfac.factor})^{cfac.multiplicity}{extra}")
            for jp in self.jordan:
                blocks = ", ".join(f"{count} block(s) of size {size}"
                                   for size, count in sorted(jp.blocks.items()))
                lines.append(f"  Jordan at {jp.factor}: {blocks}")
        if self.kernel_condition is not None:
            lines.append(f"kernel condition: {self.kernel_condition}")
        if self.theta is not None:
            lines.append(f"theta = {format_polynomial(self.theta)}")
        if self.quasi_homogeneous is not None:
            lines.append(f"quasi-homogeneous: {self.quasi_homogeneous}")
        lines.append(f"generators: trivial {len(self.trivial)}, "
                     f"four {'-' if self.four is None else len(self.four)}, "
                     f"syzygy {self.syzygy_count}, minimal {len(self.minimal)}")
        for w in self.minimal:
            lines.append(f"  minimal: {format_one_form(w)}")
        if self.generation is not None:
            lines.append(f"generation: {self.generation}")
        if self.saito is not None:
            lines.append(f"saito: {self.saito}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        for stage, dt in self.timings.items():
            lines.append(f"time {stage}: {dt:.3f}s")
        return "\n".join(lines)


def appendix_block_warning(profile) -> Optional[str]:
    """Blocks at eigenvalue 0 must have size 1 or 2 and not be all of size 2;
    a violation indicates an engine bug."""
    if profile.max_size() > 2:
        return ("Jordan blocks of size >= 3 at eigenvalue 0; "
                "this should be impossible for plane curves")
    if profile.blocks and set(profile.blocks) == {2}:
        return ("all Jordan blocks at eigenvalue 0 have size 2; "
                "this should be impossible for plane curves")
    return None


def analyze(f: Polynomial, weights: Weights = Weights(1, 1), *,
            allow_untame: bool = False) -> AnalysisReport:
    """Run the full pipeline and assemble the report."""
    weights = Weights.of(*weights)
    order = TermOrder(weights)
    timings = {}
    t0 = time.perf_counter()
    tame_res = milnor.check_tame(f, weights)
    timings["tame"] = time.perf_counter() - t0
    report = AnalysisReport(f=f, weights=weights, tame=tame_res.tame,
                            leading_form=tame_res.leading,
                            not_tame_reason=tame_res.reason, timings=timings)
    if not tame_res.tame and not allow_untame:
        return report

    t0 = time.perf_counter()
    ma = milnor.milnor_algebra(f, weights, allow_untame=allow_untame,
                               tame_res=tame_res)
    report.mu = ma.mu
    report.tau = milnor.tjurina_number(ma)
    op = milnor.multiplication_operator(ma)
    p = milnor.min_poly(op)
    report.min_poly = p
    report.exponent = milnor.exponent(p)
    report.critical_factors = milnor.critical_value_factors(p)
    t = UniPoly.t(f.field)
    zero_profile = None
    for cfac in report.critical_factors:
        profile = milnor.jordan_profile(op, cfac.factor, p)
        report.jordan.append(profile)
        if cfac.factor == t:
            zero_profile = profile
    if report.exponent >= 1:
        if zero_profile is None:
            zero_profile = milnor.jordan_profile(op, t, p)
        warning = appendix_block_warning(zero_profile)
        if warning:
            report.warnings.append(warning)
    timings["milnor"] = time.perf_counter() - t0

    if ma.tame and ma.unique_top is False:
        report.warnings.append(
            "the standard-monomial basis of V_f does not show a unique "
            "top-degree monomial; reported, not fatal")

    if f.is_homogeneous(weights):
        dg, eta = tangent.quasihomogeneous_pair(f, weights)
        s = tangent.saito_check([dg, eta], f)
        report.quasi_homogeneous = {
            "eta": _form_dict(eta),
            "saito_constant": f.field.format_scalar(s.constant) if s.free else None,
        }

    t0 = time.perf_counter()
    report.trivial = tangent.trivial_forms(f)
    if report.exponent == 0:
        candidate = tangent.smooth_generators(f, report.exponent)
    else:
        theta = milnor.theta_polynomial(ma, op, p)
        report.theta = theta
        report.kernel_condition = milnor.kernel_condition(ma, op, theta)
        candidate = tangent.four_generators(f, ma, theta)
        report.four = candidate.forms
        report.omega = candidate.forms[-1]
    timings["forms"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    raw = tangent.syzygy_generators(f, order)
    report.syzygy_count = len(raw)
    gen = tangent.verify_generation(candidate, raw)
    report.generation = {
        "candidate_kind": candidate.kind,
        "generates": gen.generates,
        "witness": None if gen.generates else _form_dict(gen.witness),
    }
    timings["generation"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    mini = tangent.minimal_generators(raw, order)
    report.minimal = mini.forms
    if len(mini) == 2:
        s = tangent.saito_check(mini.forms, f)
        report.saito = {
            "free": s.free,
            "constant": f.field.format_scalar(s.constant) if s.free else None,
            "pair": [_form_dict(w) for w in mini.forms] if s.free else None,
        }
        if s.free:
            back = tangent.verify_generation(mini.forms, raw)
            if not back.generates:
                report.warnings.append(
                    "freeness verdict is positive but the pair fails to "
                    "generate; finding, please report")
    timings["minimal"] = time.perf_counter() - t0
    return report
