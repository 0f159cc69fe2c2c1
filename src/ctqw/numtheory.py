"""Arithmetic recognition behind transport certification.

Rational recognition with a convergent-quality gate, eigenvalue-difference
ratio tests, the lattice of eigenvalue differences that fixes the candidate
revival times, and the integer / quadratic-integer description of eigenvalue
supports.
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
#: tolerance for integer / quadratic-integer recognition of eigenvalues; the
#: c_r of walks._revival_times closer than this fall in one class
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
    generator: float = 0.0  # every difference is a multiple of it; 0 for < 2 values


def ratio_condition(values) -> RatioReport:
    """Check that all pairwise-difference ratios of the values are rational.

    It suffices to test each difference against one fixed base difference
    (ratios of rationals are rational), so the base pair (max, min) is used.
    The witness is the first failing (i, j, r, s) index 4-tuple into the
    input list. The differences generate base * gcd(p)/lcm(q) over their
    ratios p/q in lowest terms, and the base's own ratio 1 makes gcd(p) = 1.
    """
    vals = list(float(v) for v in values)
    if len(vals) < 2:
        return RatioReport(holds=True)
    r = int(max(range(len(vals)), key=lambda i: vals[i]))
    s = int(min(range(len(vals)), key=lambda i: vals[i]))
    base = vals[r] - vals[s]
    if base <= CLASS_TOL:
        return RatioReport(holds=True)
    den = 1
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if abs(vals[i] - vals[j]) <= CLASS_TOL:
                continue
            ratio = (vals[i] - vals[j]) / base
            approx = rationalize(ratio)
            if approx is None:
                return RatioReport(holds=False, witness=(i, j, r, s), witness_ratio=ratio)
            den = math.lcm(den, approx.q)
    return RatioReport(holds=True, generator=base / den)


class NotClassifiable(Exception):
    """No revival lattice (from lattice_step: no revival time exists), or no
    (a + b sqrt(delta)) / 2 description (from classify).

    Carries the reason and, for ratio failures, the witnessing ratio report.
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


def _near_int(x: float, tol: float) -> bool:
    return abs(x - round(x)) <= tol


def lattice_step(phi_plus_vals, phi_minus_vals) -> tuple[float | None, int | None]:
    """(tau_step, delta): the candidate revival period of a strongly cospectral pair.

    Revival at tau needs tau (theta_r - theta_s) in 2 pi Z within each part,
    so tau is a multiple of 2 pi / g, g the gcd of the parts' ratio_condition
    generators. When g^2 = k^2 delta is an integer (delta squarefree), to
    within a tolerance CLASS_TOL max(1, g^2) below 1/2, the step is 2 pi /
    (k sqrt(delta)), else 2 pi / g with delta None; two singleton parts give
    (None, 1). Raises NotClassifiable when no g exists.
    """
    plus = sorted((float(v) for v in phi_plus_vals), reverse=True)
    minus = sorted((float(v) for v in phi_minus_vals), reverse=True)
    if not plus or not minus:
        raise ValueError("both support parts must be nonempty")
    gens = []
    for name, vals in (("plus", plus), ("minus", minus)):
        rep = ratio_condition(vals)
        if not rep.holds:
            raise NotClassifiable(f"ratio condition fails on the {name} part: no ratio p/q with q <= {MAX_DEN}", witness=rep)
        if rep.generator:
            gens.append(rep.generator)
    if not gens:
        return None, 1
    g = gens[0]
    if len(gens) == 2:
        # gcd(g, g p/q) = g gcd(q, p)/q = g/q
        cross = rationalize(gens[1] / g)
        if cross is None:
            raise NotClassifiable(f"the parts have no common period: no generator ratio p/q with q <= {MAX_DEN}")
        g /= cross.q
    # once CLASS_TOL g^2 reaches 1/2 every float g^2 would pass as an integer
    tol = CLASS_TOL * max(1.0, g * g)
    n = round(g * g) if tol < 0.5 else 0
    if n == 0 or not _near_int(g * g, tol):
        return 2.0 * math.pi / g, None
    delta = squarefree_part(n)
    return 2.0 * math.pi / (math.isqrt(n // delta) * math.sqrt(delta)), delta


@dataclass(frozen=True)
class EigenvalueClassification:
    """Integer or quadratic-integer structure of a two-part eigenvalue support.

    Every value reconstructs as (a + b_r sqrt(delta)) / 2 with the part's
    ``a`` and its own integer ``b_r``; delta is squarefree and shared by both
    parts (delta = 1 for the all-integer kind).
    """

    kind: str  # "all_integer" | "quadratic"
    a_plus: int
    a_minus: int
    delta: int
    b_plus: tuple[int, ...]
    b_minus: tuple[int, ...]
    residual: float

    def reconstruct(self, part: str, i: int) -> float:
        a, bs = (self.a_plus, self.b_plus) if part == "plus" else (self.a_minus, self.b_minus)
        return (a + bs[i] * math.sqrt(self.delta)) / 2.0


def _fit_part(vals, delta: int) -> tuple[int, list[int]]:
    """Integers (a, [b_r]) with 2*v = a + b_r sqrt(delta) for each value.

    The offset search is bounded by |b| <= ceil(2 max|v| / sqrt(delta)) + 1,
    which covers every conjugation-closed part (conjugate pairs differ by
    2b sqrt(delta) inside the part). Supports that are not closed under
    conjugation get no description, which is all a failed fit means.
    """
    if delta == 1:  # integers, as classify checks; pin the canonical a = 0
        return 0, [round(2.0 * v) for v in vals]
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


def classify(phi_plus_vals, phi_minus_vals, delta: int | None, step: float | None = None) -> EigenvalueClassification:
    """Describe both support parts as integers or quadratic integers over
    lattice_step's delta; the revival times do not depend on it.

    Raises NotClassifiable when delta is None, when delta = 1 but some value
    is not an integer, or when no (a, b_r) fit exists. A delta of None is
    "undecided" when lattice_step's step 2 pi / g puts g^2 past its test.
    """
    plus = sorted((float(v) for v in phi_plus_vals), reverse=True)
    minus = sorted((float(v) for v in phi_minus_vals), reverse=True)
    if not plus or not minus:
        raise ValueError("both support parts must be nonempty")
    if delta is None:
        g = 2.0 * math.pi / step if step else 0.0
        if CLASS_TOL * g * g >= 0.5:  # where lattice_step's test stops; g * g may overflow to inf, past it too
            bound = f"{0.5 / CLASS_TOL:g} = 1/(2 CLASS_TOL), the bound of the integer test"
            raise NotClassifiable(f"undecided: the squared lattice generator {g * g:.6g} is past {bound}")
        raise NotClassifiable("the squared lattice generator is not an integer")
    if delta > 1:
        kind = "quadratic"
    elif all(_near_int(v, CLASS_TOL) for v in plus + minus):
        kind = "all_integer"
    else:
        raise NotClassifiable("delta is 1 but the values are not all integers")

    a_p, b_p = _fit_part(plus, delta)
    a_m, b_m = _fit_part(minus, delta)

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
        residual=residual,
    )
