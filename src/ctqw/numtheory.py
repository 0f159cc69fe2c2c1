"""Arithmetic recognition behind transport certification.

Rational recognition with a convergent-quality gate, eigenvalue-difference
ratio tests, integer / quadratic-integer classification of eigenvalue
supports, and gcd-based candidate time grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

#: absolute residual bound for accepting a rational approximation
RATIONAL_TOL = 1e-9
#: largest denominator searched by rationalize
MAX_DEN = 10**6
#: residual * q^2 bound separating true rationals from incidental convergents.
#: A generic irrational's best convergent p/q has residual ~ 1/q^2 (quality
#: ~ 1), while a float holding a true rational sits many orders below.
QUALITY_GATE = 1e-3
#: tolerance for integer / quadratic-integer recognition of eigenvalues
CLASS_TOL = 1e-7


@dataclass(frozen=True)
class RationalApprox:
    """p/q in lowest terms with the achieved approximation residual."""

    p: int
    q: int
    residual: float

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ValueError("denominator must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("fraction must be in lowest terms")


def rationalize(x: float) -> RationalApprox | None:
    """Recognize x as p/q with q <= MAX_DEN, or return None.

    Uses the best continued-fraction approximation (via
    ``Fraction.limit_denominator``) and accepts it only when the residual is
    below RATIONAL_TOL *and* residual * q**2 is below QUALITY_GATE. The second gate
    matters: every irrational has convergents with residual ~ 1/q^2, which
    crosses 1e-9 once q exceeds ~3e4, so a plain residual threshold would
    misclassify quadratic irrationals at desk scale. Verdicts are therefore
    "no convincing denominator <= MAX_DEN", never a proof of irrationality.
    """
    if not math.isfinite(x):
        return None
    f = Fraction(x).limit_denominator(MAX_DEN)
    residual = abs(x - f.numerator / f.denominator)
    if residual > RATIONAL_TOL or residual * f.denominator**2 > QUALITY_GATE:
        return None
    return RationalApprox(f.numerator, f.denominator, residual)


@dataclass(frozen=True)
class RatioReport:
    """Outcome of the pairwise difference-ratio rationality test."""

    holds: bool
    witness: tuple[int, int, int, int] | None = None
    witness_ratio: float | None = None


def ratio_condition(values) -> RatioReport:
    """Check that all pairwise-difference ratios of the values are rational.

    It suffices to test each difference against one fixed base difference
    (ratios of rationals are rational), so the base pair (max, min) is used.
    The witness is the first failing (i, j, r, s) index 4-tuple into the
    input list.
    """
    vals = list(float(v) for v in values)
    if len(vals) < 2:
        return RatioReport(holds=True)
    r = int(max(range(len(vals)), key=lambda i: vals[i]))
    s = int(min(range(len(vals)), key=lambda i: vals[i]))
    base = vals[r] - vals[s]
    if base <= CLASS_TOL:
        return RatioReport(holds=True)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) <= CLASS_TOL:
                continue
            ratio = (vals[i] - vals[j]) / base
            if rationalize(ratio) is None:
                return RatioReport(holds=False, witness=(i, j, r, s), witness_ratio=ratio)
    return RatioReport(holds=True)


class NotClassifiable(Exception):
    """The support values admit no integer / quadratic-integer structure.

    Carries the reason and, for ratio failures, the witnessing ratio report.
    Between strongly cospectral vertices this signals that no revival time
    can exist.
    """

    def __init__(self, reason: str, witness: RatioReport | None = None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor d with n = m^2 * d."""
    if n <= 0:
        raise ValueError("expected a positive integer")
    f = 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
        f += 1
    return n


@dataclass(frozen=True)
class EigenvalueClassification:
    """Integer or quadratic-integer structure of a two-part eigenvalue support.

    Every value reconstructs as (a + b_r sqrt(delta)) / 2 with the part's
    ``a`` and its own integer ``b_r``; delta is squarefree and shared by both
    parts (delta = 1 for the all-integer kind). ``g_plus``/``g_minus`` are the
    gcds of the scaled differences (theta_r - theta_s)/sqrt(delta) within each
    part, with 0 meaning the part is a singleton and constrains nothing.
    The candidate revival times are the multiples of ``tau_step``.
    """

    kind: str  # "all_integer" | "quadratic"
    a_plus: int
    a_minus: int
    delta: int
    b_plus: tuple[int, ...]
    b_minus: tuple[int, ...]
    g_plus: int
    g_minus: int
    residual: float

    @property
    def g_combined(self) -> int:
        return math.gcd(self.g_plus, self.g_minus)

    @property
    def tau_step(self) -> float | None:
        """Fundamental candidate period 2*pi/(g*sqrt(delta)), or None if unconstrained."""
        g = self.g_combined
        if g == 0:
            return None
        return 2.0 * math.pi / (g * math.sqrt(self.delta))

    def tau_grid(self, k_max: int) -> list[float]:
        step = self.tau_step
        if step is None:
            return []
        return [k * step for k in range(1, k_max + 1)]

    def reconstruct(self, part: str, i: int) -> float:
        a, bs = (self.a_plus, self.b_plus) if part == "plus" else (self.a_minus, self.b_minus)
        return (a + bs[i] * math.sqrt(self.delta)) / 2.0


def _near_int(x: float, tol: float) -> bool:
    return abs(x - round(x)) <= tol


def _part_is_integer(vals) -> bool:
    return all(_near_int(v, CLASS_TOL) for v in vals)


def _part_delta(vals) -> int:
    """Squarefree part of the squared smallest eigenvalue difference."""
    diffs = sorted(
        abs(vi - vj) for i, vi in enumerate(vals) for vj in vals[i + 1 :] if abs(vi - vj) > CLASS_TOL
    )
    d = diffs[0]
    s = (2.0 * d) ** 2
    if not _near_int(s, CLASS_TOL * max(1.0, s)):
        raise NotClassifiable(f"squared difference {s!r} is not an integer")
    return squarefree_part(round(s))


def _fit_part(vals, delta: int) -> tuple[int, list[int]]:
    """Integers (a, [b_r]) with 2*v = a + b_r sqrt(delta) for each value.

    The offset search is bounded by |b| <= ceil(2 max|v| / sqrt(delta)) + 1,
    which covers every conjugation-closed part (conjugate pairs differ by
    2b sqrt(delta) inside the part). Supports that are not closed under
    conjugation cannot carry revival anyway, so failing them is sound.
    """
    if delta == 1:
        # decomposition is non-unique over Q; pin the canonical a = 0
        bs = []
        for v in vals:
            if not _near_int(2.0 * v, CLASS_TOL):
                raise NotClassifiable(f"value {v!r} is not a half-integer")
            bs.append(round(2.0 * v))
        return 0, bs
    sd = math.sqrt(delta)
    x = [2.0 * v / sd for v in vals]
    rel = [round(xi - x[0]) for xi in x]
    bound = math.ceil(2.0 * max(abs(v) for v in vals) / sd) + 1
    for t in range(-bound, bound + 1):
        a = 2.0 * vals[0] - t * sd
        if not _near_int(a, CLASS_TOL):
            continue
        bs = [t + r for r in rel]
        if all(abs(v - (round(a) + b * sd) / 2.0) <= CLASS_TOL for v, b in zip(vals, bs)):
            return round(a), bs
    raise NotClassifiable(f"no (a, b, delta={delta}) fit for values {vals}")


def _part_gcd(vals, delta: int) -> int:
    """gcd of the scaled pairwise differences, 0 for singleton parts."""
    sd = math.sqrt(delta)
    g = 0
    for i, vi in enumerate(vals):
        for vj in vals[i + 1 :]:
            x = (vi - vj) / sd
            if not _near_int(x, CLASS_TOL * 10.0):
                raise NotClassifiable(f"scaled difference {x!r} is not an integer")
            g = math.gcd(g, abs(round(x)))
    return g


def classify(phi_plus_vals, phi_minus_vals) -> EigenvalueClassification:
    """Fit both support parts as integers or quadratic integers over one field.

    Raises NotClassifiable when a part fails the ratio condition, when the
    two parts pin incompatible structures (integers vs irrationals, or two
    different squarefree deltas), or when no consistent (a, b_r, delta) fit
    exists; all of these certify that no revival time is available.
    """
    plus = sorted((float(v) for v in phi_plus_vals), reverse=True)
    minus = sorted((float(v) for v in phi_minus_vals), reverse=True)
    if not plus or not minus:
        raise ValueError("both support parts must be nonempty")

    for name, vals in (("plus", plus), ("minus", minus)):
        rep = ratio_condition(vals)
        if not rep.holds:
            raise NotClassifiable(f"ratio condition fails on the {name} part", witness=rep)

    if _part_is_integer(plus + minus):
        kind, delta = "all_integer", 1
    else:
        kind = "quadratic"
        deltas = []
        for vals in (plus, minus):
            if len(vals) >= 2:
                deltas.append(1 if _part_is_integer(vals) else _part_delta(vals))
        nontrivial = sorted(set(d for d in deltas if d > 1))
        if not nontrivial:
            raise NotClassifiable("irrational values sit in singleton parts; field undetermined")
        if len(nontrivial) > 1:
            raise NotClassifiable(f"parts lie in different quadratic fields {nontrivial}")
        if 1 in deltas:
            raise NotClassifiable("one part is integral, the other quadratic: no common period")
        delta = nontrivial[0]

    a_p, b_p = _fit_part(plus, delta)
    a_m, b_m = _fit_part(minus, delta)
    g_p = _part_gcd(plus, delta)
    g_m = _part_gcd(minus, delta)

    sd = math.sqrt(delta)
    residual = 0.0
    for vals, a, bs in ((plus, a_p, b_p), (minus, a_m, b_m)):
        for v, b in zip(vals, bs):
            residual = max(residual, abs(v - (a + b * sd) / 2.0))

    return EigenvalueClassification(
        kind=kind,
        a_plus=a_p,
        a_minus=a_m,
        delta=delta,
        b_plus=tuple(b_p),
        b_minus=tuple(b_m),
        g_plus=g_p,
        g_minus=g_m,
        residual=residual,
    )
