import math
from fractions import Fraction

import pytest

from dyadic_spaces import (
    DyadicCube,
    Family,
    SpaceParams,
    b_type_norm,
    build_tower,
    ParamError,
    certify_separation,
    f_type_norm,
    separation_b_bound_log2,
    separation_f_bound_log2,
    tower_b_closed_form,
)

from dyadic_spaces import cli, witness

from _oracles import reference_certify

INF = math.inf


class TestBuildTower:
    def test_magnitude_exponents_at_degenerate_tau(self):
        # s=0, tau=1/p: every magnitude is |R_j|**(1/2)
        tw = build_tower(0.0, 0.5, 2.0, 1, 3)
        for j in range(4):
            cube = DyadicCube(1, j, (0,))
            assert tw.sequence.log2_value(cube) == pytest.approx(-j / 2)

    def test_depth_zero_single_unit_entry(self):
        tw = build_tower(0.0, 0.5, 2.0, 1, 0)
        assert tw.sequence.support == (DyadicCube.unit(1),)
        assert tw.sequence.log2_value(DyadicCube.unit(1)) == 0.0

    def test_exponent_arithmetic(self):
        # s=1, tau=1/2, p=2, n=1: log2 t_{R_j} = -3j/2
        tw = build_tower(1.0, 0.5, 2.0, 1, 2)
        for j in range(3):
            assert tw.sequence.log2_value(
                DyadicCube(1, j, (0,))
            ) == pytest.approx(-1.5 * j)

    def test_entry_count(self):
        assert len(build_tower(0.3, 0.2, 1.5, 2, 7).sequence) == 8


class TestClosedForm:
    @pytest.mark.parametrize(
        "s,tau,p,q,n",
        [
            (0.0, 0.5, 1.0, 2.0, 1),
            (0.7, 0.25, 2.0, 4.0, 1),
            (-0.3, 0.2, 1.0, 3.0, 2),
            (0.0, 0.4, 1.0, INF, 1),
            (0.2, 0.05, 0.5, 1.0, 1),
        ],
    )
    @pytest.mark.parametrize("J", [0, 3, 10, 30])
    def test_evaluator_matches_closed_form(self, s, tau, p, q, n, J):
        tower = build_tower(s, tau, p, n, J).sequence
        tau_prime = tau + (0.0 if q == INF else 1.0 / q) - 1.0 / p
        got = b_type_norm(
            tower,
            SpaceParams(Family.B_TYPE, s, tau_prime, q, q),
            allow_negative_tau=True,
        ).log2_value
        want = tower_b_closed_form(tau, p, q, n, J)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_boundary_value_counts_levels(self):
        # tau = 1/p - 1/q: the closed form is (J+1)**(1/q) exactly
        for J in (4, 8, 16, 32, 64):
            assert 2.0 ** tower_b_closed_form(0.5, 1.0, 2.0, 1, J) == pytest.approx(
                (J + 1) ** 0.5, rel=1e-14
            )


class TestCertify:
    def test_boundary_tau_diverges_and_target_bounded(self):
        div, bnd = certify_separation(0.0, 1.0, 2.0, 0.5, depths=(4, 8, 16, 32, 64))
        assert div.verdict == "diverges"
        assert bnd.verdict == "bounded"
        for J, v in zip(div.depths, div.log2_values):
            assert 2.0**v == pytest.approx((J + 1) ** 0.5, rel=1e-10)
        assert bnd.bound_log2 == pytest.approx(separation_f_bound_log2(0.5, 1.0, 1))
        assert max(bnd.log2_values) <= bnd.bound_log2 + 1e-9

    def test_b_part_bound(self):
        div, bnd = certify_separation(
            0.0, 1.0, 2.0, 0.5, depths=(4, 8, 16, 32, 64), family="b"
        )
        assert div.verdict == "diverges"
        assert bnd.verdict == "bounded"
        assert bnd.bound_log2 == pytest.approx(separation_b_bound_log2(0.5, 2.0, 1))

    def test_interior_tau_grows_faster(self):
        # smaller tau + 1/q - 1/p gives faster growth
        depths = (4, 8, 16, 32)
        div_boundary, _ = certify_separation(0.0, 1.0, 2.0, 0.5, depths=depths)
        div_interior, _ = certify_separation(0.0, 1.0, 2.0, 0.25, depths=depths)
        assert div_interior.fitted_exponent > div_boundary.fitted_exponent
        assert div_interior.verdict == "diverges"

    def test_q_inf_part_one(self):
        div, bnd = certify_separation(0.0, 1.0, INF, 0.5, depths=(2, 4, 8))
        assert div.verdict == "diverges"
        assert bnd.verdict == "bounded"
        # exponential growth: log2 norm = J n (1/p - tau)
        for J, v in zip(div.depths, div.log2_values):
            assert v == pytest.approx(J * 0.5, rel=1e-10)

    def test_q_inf_part_two_allows_tau_zero(self):
        div, bnd = certify_separation(0.0, 1.0, INF, 0.0, depths=(2, 4, 8), family="b")
        assert div.verdict == "diverges"
        assert bnd.verdict == "bounded"
        assert max(bnd.log2_values) <= 1e-12  # bound is exactly 1

    def test_rejects_parameters_outside_hypotheses(self):
        with pytest.raises(ValueError):
            certify_separation(0.0, 2.0, 2.0, 0.1)  # q = p
        with pytest.raises(ValueError):
            certify_separation(0.0, 1.0, 2.0, 0.7)  # tau > 1/p - 1/q
        with pytest.raises(ValueError):
            certify_separation(0.0, 1.0, 2.0, 0.0)  # tau = 0 on the f side
        with pytest.raises(ValueError):
            certify_separation(0.0, 1.0, INF, 0.0)  # tau = 0 needs the b side

    def test_depth_one_point_schedule(self):
        div, bnd = certify_separation(0.0, 1.0, 2.0, 0.5, depths=(0,))
        assert div.fitted_exponent == 0.0
        assert bnd.verdict == "bounded"
        # depth 0 towers are the single unit cube on both sides
        assert div.log2_values[0] == pytest.approx(0.0, abs=1e-12)
        assert bnd.log2_values[0] == pytest.approx(0.0, abs=1e-12)


class TestDivergenceVerdict:
    def test_flat_sequences_are_not_divergent(self):
        # a flat negative sequence used to pass as growing: the relative
        # check values[-1] > values[0] * (1 + eps) flips for negative values
        from dyadic_spaces.witness import _divergence_report

        depths = (4, 8, 16, 32)
        for v in (-3.0, 0.0, 3.0, -1e6):
            assert _divergence_report("x", depths, [v] * 4, None).verdict == "bounded"

    def test_growth_of_negative_values_is_divergent(self):
        from dyadic_spaces.witness import _divergence_report

        report = _divergence_report("x", (4, 8, 16, 32), [-3.0, -2.5, -2.0, -1.5], None)
        assert report.verdict == "diverges"


class TestCauchyTail:
    def test_f_norm_increments_below_geometric_tail(self):
        s, tau, p, q, n = 0.0, 0.5, 1.0, 2.0, 1
        bound = 2.0 ** separation_f_bound_log2(tau, p, n)
        vals = []
        for J in range(1, 40):
            tower = build_tower(s, tau, p, n, J).sequence
            vals.append(
                f_type_norm(
                    tower, SpaceParams(Family.F_TYPE, s, tau, p, q)
                ).linear_value
            )
        for i in range(1, len(vals)):
            J_next = i + 2
            assert vals[i] >= vals[i - 1] - 1e-12
            tail = bound * 2.0 ** (-n * tau * p * J_next)
            assert vals[i] - vals[i - 1] <= tail + 1e-12


class TestReports:
    def test_json_and_csv_shapes(self, tmp_path):
        div, bnd = certify_separation(0.0, 1.0, 2.0, 0.5, depths=(4, 8))
        d = div.to_json_dict()
        assert set(d) == {
            "space",
            "depths",
            "log2_values",
            "fitted_exponent",
            "verdict",
            "theoretical_exponent",
            "bound_log2",
        }
        out = tmp_path / "witness.csv"
        argv = ["witness", "--depths", "4,8", "--format", "csv", "--out", str(out)]
        assert cli.main(argv) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "side,space,depth,log2_norm,config"
        assert len(lines) == 5  # a row per side and depth


class TestDepthBound:
    @pytest.mark.parametrize("depths", [(4, witness.DEPTH_BOUND + 1), (-1,), (10**5,)])
    def test_refused_before_any_tower(self, depths, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tower was built")

        monkeypatch.setattr(witness, "build_tower", refuse)
        with pytest.raises(ParamError, match=r"\[depth bound\]") as info:
            certify_separation(0.0, 1.0, 2.0, 0.5, depths=depths)
        assert info.value.rule == "depth bound"

    @pytest.mark.parametrize(
        "depths, refused",
        [((witness.DEPTH_BOUND,) * 2, False), ((witness.DEPTH_BOUND,) * 3, True),
         ((12000,) * 4, True), ((64,) * 100, False)],
    )
    def test_list_bounded_by_sum_of_squares(self, depths, refused, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a tower was built")

        monkeypatch.setattr(witness, "build_tower", refuse)
        expected = ParamError if refused else AssertionError
        with pytest.raises(expected):
            certify_separation(0.0, 1.0, 2.0, 0.5, depths=depths)


# (p, q, tau) inside the counterexample's region for both parts, the first
# and the last at the region's end tau = 1/p - 1/q
_REGION = [(1, 2, Fraction(1, 2)), (1, 2, Fraction(1, 4)), (1, 3, Fraction(1, 3)),
           (1, INF, Fraction(1, 2)), (3, 4, Fraction(1, 12))]
# sorted, unsorted, a repeated depth, a 0 among others, and single depths
_SCHEDULES = [(4, 8, 16, 32), (16, 4, 8), (8, 8, 3), (0, 5, 2), (0,), (7,)]


class TestForestSchedule:
    """The whole depth schedule, evaluated as one forest, gives the reports
    of every tower evaluated alone, bit for bit."""

    @pytest.mark.parametrize("p,q,tau", _REGION)
    @pytest.mark.parametrize("family", ["f", "b"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reports_equal_the_per_depth_loop(self, n, family, p, q, tau):
        schedules = _SCHEDULES + ([(32, 64, 128, 256)] if n == 1 else [])
        for depths in schedules:
            got = certify_separation(Fraction(1, 3), p, q, tau, n=n, depths=depths,
                                     family=family)
            want = reference_certify(Fraction(1, 3), p, q, tau, n=n, depths=depths,
                                     family=family)
            assert got == want, depths  # every field: log2_values, fitted_exponent, verdict

    def test_b_part_at_tau_zero(self):
        for depths in _SCHEDULES:
            got = certify_separation(0, 1, INF, 0, depths=depths, family="b")
            assert got == reference_certify(0, 1, INF, 0, depths=depths, family="b")

    def test_depth_zero_is_left_out_of_the_fit(self):
        with_zero = certify_separation(0, 1, 2, Fraction(1, 2), depths=(0, 4, 8))
        without = certify_separation(0, 1, 2, Fraction(1, 2), depths=(4, 8))
        for a, b in zip(with_zero, without):
            assert a.fitted_exponent == b.fitted_exponent
            assert a.log2_values[1:] == b.log2_values
        assert certify_separation(0, 1, 2, Fraction(1, 2), depths=(0, 4))[0].fitted_exponent == 0
