"""Rational recognition, ratio tests, the difference lattice, quadratic-integer classification."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ctqw import graphs as G
from ctqw.numtheory import (
    MAX_DEN,
    NotClassifiable,
    classify,
    lattice_step,
    ratio_condition,
    rationalize,
    squarefree_part,
)
from ctqw.spectral import decompose, pair_profile


def support_values(g, a, b):
    dec = decompose(g)
    prof = pair_profile(dec, a, b)
    plus = [float(dec.eigenvalues[r]) for r in sorted(prof.phi_plus)]
    minus = [float(dec.eigenvalues[r]) for r in sorted(prof.phi_minus)]
    return plus, minus


class TestRationalize:
    def test_exact_half(self):
        r = rationalize(0.5)
        assert (r.p, r.q) == (1, 2) and r.residual == 0.0

    def test_sqrt5_minus_2_is_not_recognized(self):
        # a plain residual threshold would accept the convergent 98209/416020
        assert rationalize(math.sqrt(5) - 2) is None

    def test_p5_path_ratio_not_recognized(self):
        w = np.sort(np.linalg.eigvalsh(G.path(5).weights))[::-1]
        ratio = (w[0] - w[1]) / (w[0] - w[4])
        assert rationalize(ratio) is None

    def test_recovers_fractions(self):
        for p, q in [(3, 7), (-22, 9), (355, 113), (1, 999983)]:
            r = rationalize(p / q)
            assert (r.p, r.q) == (Fraction(p, q).numerator, Fraction(p, q).denominator)
            assert r.residual <= 1e-15

    def test_respects_max_den(self):
        assert 1000003 > MAX_DEN  # a prime
        assert rationalize(1 / 1000003) is None

    def test_nan_and_inf(self):
        assert rationalize(float("nan")) is None
        assert rationalize(float("inf")) is None

    def test_rational_cosine_recognized(self):
        assert rationalize(math.cos(math.pi / 3)) is not None


class TestNOf:
    """Recognized denominators come back in lowest terms."""

    def test_reduction(self):
        assert rationalize(4 / 14).q == 7
        assert rationalize(8 / 6).q == 3


class TestRatioCondition:
    def test_single_difference_holds(self):
        assert ratio_condition([2.0, -1.0]).holds

    def test_fewer_than_two_values_vacuous(self):
        assert ratio_condition([1.5]).holds
        assert ratio_condition([]).holds

    def test_c10_plus_part_fails(self):
        plus, _ = support_values(G.cycle(10), 0, 5)
        rep = ratio_condition(plus)
        assert not rep.holds and rep.witness is not None

    def test_c8_full_support_fails_with_sqrt2_witness(self):
        vals = [2.0, math.sqrt(2), 0.0, -math.sqrt(2), -2.0]
        rep = ratio_condition(vals)
        assert not rep.holds
        assert rep.witness == (0, 1, 0, 4)
        assert rep.witness_ratio == pytest.approx((2 - math.sqrt(2)) / 4)

    def test_integer_sets_pass(self):
        assert ratio_condition([6.0, 1.0, -2.0, -3.0]).holds

    def test_affine_invariance(self):
        base = [2.0, math.sqrt(2), -2.0]
        mapped = [0.75 * v + 4.0 for v in base]
        assert ratio_condition(base).holds == ratio_condition(mapped).holds
        good = [3.0, 1.0, 0.0]
        mapped = [-2.5 * v + 1.0 for v in good]
        assert ratio_condition(good).holds and ratio_condition(mapped).holds


class TestSquarefree:
    def test_values(self):
        assert squarefree_part(12) == 3
        assert squarefree_part(5) == 5
        assert squarefree_part(36) == 1
        assert squarefree_part(44) == 11
        with pytest.raises(ValueError):
            squarefree_part(0)


def generators(*parts):
    """Each part's difference generator from ratio_condition."""
    return [ratio_condition(v).generator for v in parts]


class TestClassify:
    def test_p4_quadratic(self):
        plus, minus = support_values(G.path(4), 0, 3)
        step, delta = lattice_step(plus, minus)
        cls = classify(plus, minus, delta)
        assert cls.kind == "quadratic"
        assert (cls.a_plus, cls.a_minus, cls.delta) == (1, -1, 5)
        assert sorted(cls.b_plus) == [-1, 1] and sorted(cls.b_minus) == [-1, 1]
        # per part g sqrt(delta) with (g+, g-) = (1, 1)
        assert generators(plus, minus) == pytest.approx([math.sqrt(5), math.sqrt(5)])
        assert step == pytest.approx(2 * math.pi / math.sqrt(5))

    def test_c6_all_integer(self):
        plus, minus = support_values(G.cycle(6), 0, 3)
        step, delta = lattice_step(plus, minus)
        cls = classify(plus, minus, delta)
        assert cls.kind == "all_integer"
        assert generators(plus, minus) == pytest.approx([3, 3])
        assert any(abs(k * step - 2 * math.pi / 3) <= 1e-12 for k in range(1, 5))

    def test_double_cone_branch_split(self):
        # k^2 + 8n a perfect square -> integers; otherwise a quadratic field
        sq = classify([4.0, -2.0], [0.0], lattice_step([4.0, -2.0], [0.0])[1])  # k=2, n=4: sqrt(36)
        assert sq.kind == "all_integer"
        k, n = 2, 5  # sqrt(44) = 2 sqrt(11)
        thetas = [(k + math.sqrt(k * k + 8 * n)) / 2, (k - math.sqrt(k * k + 8 * n)) / 2]
        step, delta = lattice_step(thetas, [0.0])
        quad = classify(thetas, [0.0], delta)
        assert quad.kind == "quadratic" and quad.delta == 11
        assert quad.a_plus == 2 and sorted(quad.b_plus) == [-2, 2]
        assert generators(thetas, [0.0]) == pytest.approx([2 * math.sqrt(11), 0])
        assert step == pytest.approx(2 * math.pi / (2 * math.sqrt(11)))

    def test_p2_unconstrained_grid(self):
        assert lattice_step([1.0], [-1.0]) == (None, 1)
        assert generators([1.0], [-1.0]) == [0, 0]
        assert classify([1.0], [-1.0], 1).kind == "all_integer"

    def test_reconstruction(self):
        plus, minus = support_values(G.path(4), 0, 3)
        cls = classify(plus, minus, 5)
        assert cls.residual < 1e-12
        for i, v in enumerate(sorted(plus, reverse=True)):
            assert cls.reconstruct("plus", i) == pytest.approx(v, abs=1e-9)
        for i, v in enumerate(sorted(minus, reverse=True)):
            assert cls.reconstruct("minus", i) == pytest.approx(v, abs=1e-9)

    def test_mixed_parts_rejected(self):
        # an integral part beside a part in Q(sqrt 3): no common period
        plus, minus = support_values(G.path(5), 0, 4)
        with pytest.raises(NotClassifiable, match="no common period"):
            lattice_step(plus, minus)

    def test_delta_mismatch_rejected(self):
        s2, s3 = math.sqrt(2), math.sqrt(3)
        with pytest.raises(NotClassifiable, match="no common period"):
            lattice_step([s2, -s2], [s3, -s3])

    def test_ratio_failure_carries_witness(self):
        vals = [2.0, math.sqrt(2), 0.0]
        with pytest.raises(NotClassifiable) as err:
            lattice_step(vals, [1.0])
        assert err.value.witness is not None
        assert not err.value.witness.holds

    @pytest.mark.parametrize("g", [4 * 1234.5678, 3000.0, 4e150, 4e200])
    def test_large_generator_has_no_integer_square(self, g):
        # above g^2 = 5e6 the tolerance CLASS_TOL g^2 reaches 1/2, so g^2 is
        # never read as an integer, even 9e6, and its square may overflow
        assert lattice_step([g / 2, -g / 2], [0.0]) == (2 * math.pi / g, None)

    @pytest.mark.parametrize("g", [4 * 1234.5678, 3000.0, 4e150, 4e200])
    def test_untested_generator_is_undecided(self, g):
        # lattice_step's delta of None past its bound is not a verdict: with
        # the step, classify says undecided and names the bound
        step, delta = lattice_step([g / 2, -g / 2], [0.0])
        with pytest.raises(NotClassifiable, match=r"^undecided: .* is past 5e\+06 = 1/\(2 CLASS_TOL\)"):
            classify([g / 2, -g / 2], [0.0], delta, step)
        with pytest.raises(NotClassifiable, match="is not an integer"):
            classify([g / 2, -g / 2], [0.0], delta)

    def test_tested_generator_is_not_an_integer(self):
        # g^2 = 89.45^2 = 8001.3025 lies inside the bound: the test ran, and says no
        step, delta = lattice_step([44.725, -44.725], [0.0])
        assert delta is None
        with pytest.raises(NotClassifiable, match="^the squared lattice generator is not an integer$"):
            classify([44.725, -44.725], [0.0], delta, step)

    def test_singleton_irrational_rejected(self):
        # singletons constrain no time, so there is a lattice but no description
        assert lattice_step([math.sqrt(3)], [0.0]) == (None, 1)
        with pytest.raises(NotClassifiable, match="values are not all integers"):
            classify([math.sqrt(3)], [0.0], 1)

    def test_empty_part_is_an_error(self):
        with pytest.raises(ValueError):
            classify([], [1.0], 1)
        with pytest.raises(ValueError):
            lattice_step([], [1.0])

    def test_scaled_and_shifted_c6_have_a_lattice(self):
        plus, minus = support_values(G.cycle(6), 0, 3)
        half = lattice_step([v / 2 for v in plus], [v / 2 for v in minus])
        assert half[0] == pytest.approx(4 * math.pi / 3) and half[1] is None
        shifted = [v - 0.75 for v in plus], [v - 0.75 for v in minus]
        assert lattice_step(*shifted) == (2 * math.pi / (3 * math.sqrt(1)), 1)
        with pytest.raises(NotClassifiable, match="values are not"):
            classify(*shifted, 1)
