"""Exact engine for polynomial 1-forms tangent to plane algebraic curves."""

from .errors import (CurveFormsError, DegenerateWindow, DivisionByZero,
                     FactorNotDividing, FieldMismatch, InvalidInput,
                     InvariantViolation, MissingEmbedding,
                     NotFiniteDimensional, NotHomogeneous, NotInJacobian,
                     NotInKernel, NotSmooth, NotSquare, NotTame, NotTangent,
                     PolySyntaxError, RankMismatch, SmoothCurve, UnknownFixture,
                     UnknownSymbol, ZeroInput)
from .field import QQ, NumberField, Rational, rational
from .groebner import (GroebnerBasis, Membership, ModuleOrder, ModuleVector,
                       buchberger, membership, recombine, syzygies)
from .linalg import Matrix, UniPoly, matrix_min_poly
from .milnor import (CriticalFactor, JordanProfile, MilnorAlgebra, TameResult,
                     check_tame, critical_value_factors, exponent,
                     jordan_profile, kernel_condition, milnor_algebra,
                     min_poly, multiplication_operator, standard_monomials,
                     theta_polynomial, tjurina_number)
from .poly import (GREVLEX, NEG_INFINITY, OneForm, Polynomial, TermOrder,
                   TwoForm, Weights, exterior_derivative, field_from_minpoly,
                   format_one_form, format_polynomial, parse_polynomial,
                   parse_scalar, parse_univariate, pullback, wedge)
from .tangent import (GenerationResult, GeneratorSet, SaitoResult,
                      four_generators, is_tangent, minimal_generators,
                      omega_from_theta, quasihomogeneous_pair, saito_check,
                      smooth_generators, syzygy_generators, tangency_defect,
                      trivial_forms, verify_generation)
from .analysis import AnalysisReport, analyze
from .plotting import marching_squares, plot_svg, render_svg

__version__ = "0.1.0"
