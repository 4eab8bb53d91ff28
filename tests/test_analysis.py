import os
import subprocess
import sys

import numpy as np
import pytest

import sixstate
from sixstate import info
from sixstate.analysis import (
    PURE_CROSSING_D,
    crossing_point,
    crossing_sweep,
    curve_sweep,
    key_feasible,
)
from sixstate.exceptions import DomainError


def test_baseline_constant():
    assert PURE_CROSSING_D == 0.15637


class TestCurveSweep:
    def test_grid_endpoints(self):
        points = curve_sweep(0.05, steps=11)
        assert len(points) == 11
        assert points[0].q == pytest.approx(0.025)
        assert points[-1].q == pytest.approx(0.5)

    def test_first_point_no_eavesdropper_information(self):
        points = curve_sweep(0.08, steps=5)
        assert points[0].i_ae_opt == 0.0
        assert points[0].i_ae_alt == 0.0

    def test_last_point_no_shared_information(self):
        points = curve_sweep(0.08, steps=5)
        assert points[-1].i_ab == 0.0

    def test_noisy_curve_below_pure_curve(self):
        for pt in curve_sweep(0.05, steps=40):
            assert pt.i_ae_opt <= pt.i_ae_pure + 1e-15

    def test_noiseless_sweep_collapses_to_pure_columns(self):
        for pt in curve_sweep(0.0, steps=25):
            assert abs(pt.i_ab - pt.i_ab_pure) <= 1e-14
            assert abs(pt.i_ae_opt - pt.i_ae_pure) <= 1e-14

    def test_values_in_range(self):
        for pt in curve_sweep(0.2, steps=30):
            for v in (pt.i_ab, pt.i_ae_opt, pt.i_ae_alt, pt.beta_sq):
                assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.9, 0.99])
    def test_rows_bit_equal_to_scalar_functions(self, p):
        for pt in curve_sweep(p, steps=200):
            q = pt.q
            assert (pt.i_ab, pt.i_ae_opt, pt.i_ae_alt, pt.i_ab_pure, pt.i_ae_pure,
                    pt.beta_sq) == (
                info.i_ab(q),
                info.i_ae_optimal(p, q),
                info.i_ae_antiphase(p, q),
                info.i_ab(q),
                info.i_ae_optimal(0.0, q),
                info.beta_sq_optimal(p, q, "plus"),
            )

    def test_too_few_steps(self):
        with pytest.raises(DomainError):
            curve_sweep(0.05, steps=1)

    def test_bad_noise(self):
        with pytest.raises(DomainError):
            curve_sweep(1.2, steps=10)


class TestCrossingPoint:
    def test_noiseless_threshold(self):
        res = crossing_point(0.0)
        assert res.q_cross == pytest.approx(0.15637, abs=5e-4)
        assert res.margin == pytest.approx(0.0, abs=5e-4)

    def test_noiseless_threshold_tight(self):
        # high-precision root of i_ab(q) = i_ae_optimal(0, q)
        res = crossing_point(0.0, tol=1e-12)
        assert res.q_cross == pytest.approx(0.15637346333003933134, abs=1e-11)

    def test_tolerance_controls_bracket(self):
        res = crossing_point(0.1, tol=1e-6)
        fine = crossing_point(0.1, tol=1e-12)
        assert abs(res.q_cross - fine.q_cross) < 1e-6
        assert res.iterations < fine.iterations

    def test_tolerance_below_float_spacing_terminates(self):
        # The bracket cannot shrink below the float spacing near the root,
        # so the search must stop on its own; run it in a subprocess so a
        # hang fails the test instead of stalling the suite.
        src = os.path.dirname(os.path.dirname(sixstate.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "from sixstate.analysis import crossing_point; "
            "print(repr(crossing_point(0.05, tol=1e-20).q_cross))"
        )
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) == pytest.approx(crossing_point(0.05).q_cross, abs=1e-9)

    def test_margin_positive_at_nonzero_noise(self):
        assert crossing_point(0.1).margin > 0.0

    def test_line_formula(self):
        res = crossing_point(0.2)
        assert res.q_line == pytest.approx(0.15637 * 0.8 + 0.1)

    def test_advantage_signs_around_root(self):
        res = crossing_point(0.05)
        q = res.q_cross
        assert info.i_ab(q - 1e-4) > info.i_ae_optimal(0.05, q - 1e-4)
        assert info.i_ab(q + 1e-4) < info.i_ae_optimal(0.05, q + 1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            crossing_point(0.6)
        with pytest.raises(DomainError):
            crossing_point(0.1, tol=0.0)


class TestCrossingSweep:
    def test_margins_increase_with_noise(self):
        results = crossing_sweep(0.0, 0.2, steps=21)
        margins = [r.margin for r in results]
        assert margins[0] >= -5e-4
        assert all(b > a for a, b in zip(margins, margins[1:]))

    def test_threshold_grows_with_noise(self):
        results = crossing_sweep(0.0, 0.2, steps=11)
        base = results[0].q_cross
        assert all(r.q_cross > base for r in results[1:])

    def test_single_point_sweep(self):
        results = crossing_sweep(0.0, 0.0, steps=1)
        assert len(results) == 1
        assert results[0].q_cross == crossing_point(0.0).q_cross

    def test_bad_ranges(self):
        with pytest.raises(DomainError):
            crossing_sweep(0.1, 0.05, steps=5)
        with pytest.raises(DomainError):
            crossing_sweep(0.0, 0.6, steps=5)
        with pytest.raises(DomainError):
            crossing_sweep(0.0, 0.2, steps=0)
        with pytest.raises(DomainError):
            crossing_sweep(0.0, 0.2, steps=1)

    def test_round_off_outside_range_is_clamped(self):
        # the same 1e-12 clamp as crossing_point
        rows = crossing_sweep(-1e-13, 0.5 + 1e-13, steps=2)
        assert [r.p for r in rows] == [0.0, 0.5]
        assert rows[0] == crossing_point(-1e-13)


class TestKeyFeasible:
    def test_reference_points(self):
        assert key_feasible(0.0, 0.10)
        assert not key_feasible(0.0, 0.20)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
    def test_no_interaction_always_feasible(self, p):
        assert key_feasible(p, p / 2)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.15])
    def test_consistent_with_crossing(self, p):
        q_cross = crossing_point(p).q_cross
        assert key_feasible(p, q_cross - 1e-6)
        assert not key_feasible(p, q_cross + 1e-6)
