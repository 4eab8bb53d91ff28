import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import sixstate
from sixstate import analysis, attack, info, optimize, protocol
from sixstate.analysis import (
    PURE_CROSSING_D,
    CrossingResult,
    crossing_point,
    crossing_sweep,
    curve_sweep,
)
from sixstate.exceptions import AmbiguousCrossingError, DomainError, NoCrossingError

from test_optimize import _mesh_points


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
        with pytest.raises(DomainError):
            crossing_point(0.1, tol=10 ** 400)


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
        with pytest.raises(DomainError, match="need p_min < p_max"):
            crossing_sweep(0.1, 0.1, steps=2)

    def test_round_off_outside_range_is_clamped(self):
        # the same 1e-12 clamp as crossing_point
        rows = crossing_sweep(-1e-13, 0.5 + 1e-13, steps=2)
        assert [r.p for r in rows] == [0.0, 0.5]
        assert rows[0] == crossing_point(-1e-13)


def _seeded_windows(n):
    """n (p_min, p_max, steps) sweeps over [0, 0.5], of 1 to 21 points."""
    windows = []
    for k, (a, b) in enumerate(np.random.default_rng(4040).uniform(0.0, 0.5, (n, 2)).tolist()):
        steps = 1 + k % 21
        windows.append((a, a, 1) if steps == 1 else (min(a, b), max(a, b), steps))
    return windows


@pytest.mark.parametrize("p_min, p_max, steps", [(0.0, 0.5, 201)] + _seeded_windows(50))
def test_crossing_rows_within_physical_bounds(p_min, p_max, steps):
    # the threshold lies strictly inside (p/2, 1/2), and the baseline and
    # margin are the documented expressions, bit for bit
    for r in crossing_sweep(p_min, p_max, steps):
        assert r.p / 2.0 < r.q_cross < 0.5
        assert r.q_line == 0.15637 * (1.0 - r.p) + r.p / 2.0
        assert r.margin == r.q_cross - r.q_line


def _crossing_loop(p, tol):
    """Reference: one scalar bisection per p, as crossing_point ran it."""
    lo = p / 2.0 + 1e-9
    hi = 0.5 - 1e-9
    iterations = 0
    q_cross = 0.5 * (lo + hi)
    noise = info._noise(p)
    while hi - lo > tol and lo < q_cross < hi:
        if analysis._advantage(noise, q_cross) > 0.0:
            lo = q_cross
        else:
            hi = q_cross
        iterations += 1
        q_cross = 0.5 * (lo + hi)
    q_line = PURE_CROSSING_D * (1.0 - p) + p / 2.0
    return CrossingResult(p, q_cross, q_line, q_cross - q_line, iterations)


class TestLockStep:
    """The lock-step search equals one scalar bisection per p, bit for bit."""

    def test_sweep_matches_loop(self):
        ps = np.linspace(0.0, 0.5, 501).tolist()
        assert repr(crossing_sweep(0.0, 0.5, 501)) == repr([_crossing_loop(p, 1e-9) for p in ps])

    def test_one_row_sweep_matches_loop(self):
        assert repr(crossing_sweep(0.3, 0.3, 1)) == repr([_crossing_loop(0.3, 1e-9)])

    @pytest.mark.parametrize("tol", [1.0, 1e-3, 1e-9, 1e-12, 1e-20])
    def test_tolerances_match_loop(self, tol):
        ps = np.linspace(0.0, 0.5, 41).tolist()
        want = [_crossing_loop(p, tol) for p in ps]
        assert repr([crossing_point(p, tol=tol) for p in ps]) == repr(want)
        assert repr(crossing_sweep(0.0, 0.5, 41, tol=tol)) == repr(want)
        # a one-point sweep, which takes the scalar-p path, gives the same row
        assert repr([crossing_sweep(p, p, 1, tol=tol)[0] for p in ps]) == repr(want)

    def test_lone_live_row_takes_scalar_p(self, monkeypatch):
        # a lone live row (a one-point sweep, crossing_point, or a chunk of
        # one, as the 65th row is) gets p as a Python float; more get a column
        calls = []
        advantage = analysis._advantage
        def recorded(noise, q):
            calls.append((noise[0], np.shape(q)[0]))
            return advantage(noise, q)
        monkeypatch.setattr(analysis, "_advantage", recorded)
        crossing_sweep(0.3, 0.3, 1)
        assert calls and all(type(p) is float and p == 0.3 for p, _ in calls)
        calls.clear()
        rows = crossing_sweep(0.0, 0.2, 65)
        lone = [p for p, n in calls if n == 1]
        assert lone and all(type(p) is float and p == rows[64].p for p in lone)
        assert all(np.shape(p) == (n, 1) for p, n in calls if n > 1)

    @staticmethod
    def stand_in(no_change, several):
        # one sign change at q = 0.3 on every bracket, except at the p
        # given as no_change (none) and as several (three)
        def advantage(noise, q):
            p = noise[0]
            q = np.asarray(q, dtype=float)
            once = 0.3 - q
            thrice = -(q - 0.3) * (q - 0.35) * (q - 0.4)
            return np.where(np.isclose(p, no_change), 1.0 + 0.0 * q,
                            np.where(np.isclose(p, several), thrice, once))
        return advantage

    def test_first_failing_p_raises(self, monkeypatch):
        ps = np.linspace(0.0, 0.4, 5).tolist()
        monkeypatch.setattr(analysis, "_advantage", self.stand_in(ps[2], ps[3]))
        with pytest.raises(NoCrossingError, match=f"on \\[{ps[2] / 2.0 + 1e-9}, "):
            crossing_sweep(0.0, 0.4, 5)
        monkeypatch.setattr(analysis, "_advantage", self.stand_in(math.nan, ps[3]))
        with pytest.raises(AmbiguousCrossingError, match=f"for p={ps[3]}$"):
            crossing_sweep(0.0, 0.4, 5)

    def test_first_failing_p_raises_in_a_later_chunk(self, monkeypatch):
        # 101 rows: round one of the second chunk of 64 refuses both
        ps = np.linspace(0.0, 0.4, 101).tolist()
        monkeypatch.setattr(analysis, "_advantage", self.stand_in(ps[70], ps[80]))
        with pytest.raises(NoCrossingError, match=f"on \\[{ps[70] / 2.0 + 1e-9}, "):
            crossing_sweep(0.0, 0.4, 101)
        monkeypatch.setattr(analysis, "_advantage", self.stand_in(ps[90], ps[66]))
        with pytest.raises(AmbiguousCrossingError, match=f"for p={ps[66]}$"):
            crossing_sweep(0.0, 0.4, 101)

    def test_later_round_sees_changes_inside_one_cell(self, monkeypatch):
        # at p = ps[3] the root and two more sign changes share the round-one
        # cell [lo + 19 w, lo + 20 w], w = (hi - lo) / 32
        ps = np.linspace(0.0, 0.4, 5).tolist()
        lo, hi = ps[3] / 2.0 + 1e-9, 0.5 - 1e-9
        roots = [lo + (38 + f) * (hi - lo) / 64 for f in (0.2, 0.5, 0.8)]

        def advantage(noise, q):
            q = np.asarray(q, dtype=float)
            thrice = -(q - roots[0]) * (q - roots[1]) * (q - roots[2])
            return np.where(np.isclose(noise[0], ps[3]), thrice, 0.3 - q)

        # round one cannot see them: one sign change on its 33 points
        grid = advantage(info._noise(ps[3]), np.linspace(lo, hi, 33))
        assert np.count_nonzero(np.diff(np.sign(grid))) == 1
        monkeypatch.setattr(analysis, "_advantage", advantage)
        with pytest.raises(AmbiguousCrossingError, match=f"for p={ps[3]}$"):
            crossing_sweep(0.0, 0.4, 5)

    def test_exact_zeros_skipped(self, monkeypatch):
        # an exact zero is no sign change: + ... 0 ... + ... - crosses once
        def advantage(noise, q):
            q = np.asarray(q, dtype=float)
            return np.where(abs(q - 0.2) < 0.02, 0.0, 0.3 - q) + 0.0 * noise[0]

        monkeypatch.setattr(analysis, "_advantage", advantage)
        assert crossing_point(0.1).q_cross == pytest.approx(0.3, abs=1e-9)

    def test_kernel_calls(self, monkeypatch):
        calls, points = [], []
        advantage = analysis._advantage
        def counted(noise, q):
            calls.append(1)
            points.append(np.size(q))
            return advantage(noise, q)
        monkeypatch.setattr(analysis, "_advantage", counted)
        # a bracket already narrower than tol costs round one alone
        assert crossing_point(0.1, tol=1.0).iterations == 0
        assert (len(calls), sum(points)) == (1, 33)
        # one call per five levels for all rows; every round takes both
        # bracket ends, so a row costs 33 points a round
        calls.clear()
        points.clear()
        rows = crossing_sweep(0.0, 0.2, 21)
        rounds = [max(1, math.ceil(r.iterations / 5)) for r in rows]
        assert len(calls) == math.ceil(max(r.iterations for r in rows) / 5)
        assert sum(points) == sum(33 * n for n in rounds)

    def test_noise_terms_formed_once_per_live_set(self, monkeypatch):
        forms = []
        noise = analysis._noise
        def recorded(p):
            forms.append(p)
            return noise(p)
        monkeypatch.setattr(analysis, "_noise", recorded)
        # every row of one chunk retires in the same round: one column
        crossing_sweep(0.0, 0.2, 21)
        assert [np.shape(p) for p in forms] == [(21, 1)]
        # a full chunk, then the 65th row alone, as a Python float
        forms.clear()
        rows = crossing_sweep(0.0, 0.2, 65)
        assert [np.shape(p) for p in forms] == [(64, 1), ()]
        assert type(forms[1]) is float and forms[1] == rows[64].p
        # at this tol the brackets of small p take 26 steps (six rounds) and
        # those of large p 25 (five): after round five only the rows still
        # live are formed again
        forms.clear()
        rows = crossing_sweep(0.0, 0.5, 11, tol=1e-8)
        rounds = [max(1, math.ceil(r.iterations / 5)) for r in rows]
        assert len(set(rounds)) > 1
        want, live = [[r.p for r in rows]], rows
        for k in range(1, max(rounds)):
            still = [r for r, n in zip(rows, rounds) if n > k]
            if len(still) < len(live):
                want.append([r.p for r in still])
            live = still
        assert [np.ravel(p).tolist() for p in forms] == want
        assert all(np.shape(p) == (len(w), 1) for p, w in zip(forms, want) if len(w) > 1)

    def test_memory_bounded_by_chunks(self):
        tracemalloc.start()
        try:
            crossing_sweep(0.0, 0.5, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def _feasible(p, q):
    """Whether Bob still holds at least as much information as Eve."""
    return info.i_ab(q) >= info.i_ae_optimal(p, q)


class TestKeyFeasible:
    def test_reference_points(self):
        assert _feasible(0.0, 0.10)
        assert not _feasible(0.0, 0.20)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
    def test_no_interaction_always_feasible(self, p):
        assert _feasible(p, p / 2)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.15])
    def test_consistent_with_crossing(self, p):
        q_cross = crossing_point(p).q_cross
        assert _feasible(p, q_cross - 1e-6)
        assert not _feasible(p, q_cross + 1e-6)


@pytest.mark.parametrize("p, q", [(0.05, 0.15), (0.3, 0.4)])
def test_verify_error_rate_is_the_mean_of_both_flips(p, q, monkeypatch):
    # An asymmetric channel whose flips average to q in every basis: the
    # error-rate check must compare their mean, not one flip, with q.
    real = analysis.simulate

    def asymmetric(iso, p):
        eve, flips = real(iso, p)
        return eve, [[q - 1e-6, q + 1e-6] for _ in flips]

    monkeypatch.setattr(analysis, "simulate", asymmetric)
    checks, _ = analysis.verify_checks(p, q)
    passed = {name: ok for name, ok, _ in checks}
    assert passed["error rate all bases"]
    assert not passed["bob symmetry"]


# verify_checks' checks in order, with the bound each compares its value with
_VERIFY_BOUNDS = {
    "constraints": 1e-10,
    "outcome distribution": 1e-12,
    "error rate all bases": 1e-10,
    "bob symmetry": 1e-12,
    "branch dominance": 1e-12,
    "branch symmetry": 1e-14,
    "stationarity": 1e-6,
}


def _set_check_value(m, name, v):
    """Patch the bindings verify_checks reads so that check `name` reads v.

    Each shift makes the signed difference negative, so a check that
    dropped its abs() would pass where it must fail.
    """
    if name == "constraints":
        real_target = analysis._overlap_target
        m.setattr(analysis, "_overlap_target", lambda p, q: real_target(p, q) + v)
    elif name in ("outcome distribution", "error rate all bases", "bob symmetry"):
        real_simulate = analysis.simulate
        eve_shift = v if name == "outcome distribution" else 0.0
        s0, s1 = {"error rate all bases": (-v, -v),
                  "bob symmetry": (v / 2, -v / 2)}.get(name, (0.0, 0.0))

        def shifted(iso, p):
            eve, flips = real_simulate(iso, p)
            eve = eve.copy()
            eve[1] += eve_shift
            return eve, [[w0 + s0, w1 + s1] for w0, w1 in flips]
        m.setattr(analysis, "simulate", shifted)
    elif name == "branch dominance":
        real_optimum = analysis._optimum
        m.setattr(analysis, "_i_ae_antiphase", lambda noise, q: real_optimum(noise, q)[2] + v)
    elif name == "branch symmetry":
        real_optimum = analysis._optimum

        def shifted(noise, q, sign=1.0):
            root, beta, value = real_optimum(noise, q, sign)
            return root, beta, value + (v if sign < 0 else 0.0)
        m.setattr(analysis, "_optimum", shifted)
    else:
        m.setattr(analysis, "lagrange_residual", lambda params: optimize.LagrangeResidual(v))


@pytest.mark.parametrize("name", list(_VERIFY_BOUNDS))
def test_verify_check_bound_pinned(name, monkeypatch):
    # At half its bound the check passes, at twice its bound it fails, and
    # no other check moves.
    for factor, expected in ((0.5, True), (2.0, False)):
        with monkeypatch.context() as m:
            _set_check_value(m, name, factor * _VERIFY_BOUNDS[name])
            checks, _ = analysis.verify_checks(0.05, 0.15)
        assert [n for n, _, _ in checks] == list(_VERIFY_BOUNDS)
        assert {n: ok for n, ok, _ in checks} == {n: n != name or expected for n in _VERIFY_BOUNDS}


def _compare_optimum_reference(p, q, grid, refine_iters):
    """`compare_optimum` as the composition of public calls it replaced."""
    closed = info.i_ae_optimal(p, q)
    result = optimize.grid_refine_maximize(p, q, grid=grid, refine_iters=refine_iters)
    lr = optimize.lagrange_residual(attack.optimal_parameters(p, q))
    values = {
        "i_ae_closed": closed,
        "i_ae_grid": result.best_value,
        "abs_diff": abs(closed - result.best_value),
        "beta_sq_plus": info.beta_sq_optimal(p, q, "plus"),
        "beta_sq_minus": info.beta_sq_optimal(p, q, "minus"),
        "grid_beta_a_sq": result.best_params.beta_a_sq,
        "i_ae_antiphase": info.i_ae_antiphase(p, q),
        "lagrange_residual": lr.residual_norm,
    }
    return values, result, lr.degenerate


def _compare_points():
    rng = np.random.default_rng(32)
    p = rng.uniform(0.0, 0.999, 200)
    return _mesh_points() + list(zip(p.tolist(), rng.uniform(p / 2.0, 0.5).tolist()))


@pytest.mark.parametrize("grid, refine_iters", [(201, 6), (51, 0)])
def test_compare_optimum_matches_public_calls(grid, refine_iters):
    # repr tells -0.0 from 0.0 and a numpy scalar from a float, so the
    # values, the search result and the flag must agree bit for bit
    for p, q in _compare_points():
        got = analysis.compare_optimum(p, q, grid, refine_iters)
        assert repr(got) == repr(_compare_optimum_reference(p, q, grid, refine_iters)), (p, q)


@pytest.mark.parametrize("p, q", [(0.05, 0.01), (1.0, 0.5), (0.05, "0.1"), (0.05, math.nan)])
def test_compare_optimum_refuses_what_the_public_calls_refuse(p, q):
    with pytest.raises(DomainError) as want:
        info.i_ae_optimal(p, q)
    with pytest.raises(DomainError, match=f"^{re.escape(str(want.value))}$"):
        analysis.compare_optimum(p, q)


@pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
def test_public_results_are_python_floats(p, t):
    # q runs from p/2 (t = 0) through the interior to 1/2 (t = 1)
    q = p / 2.0 + t * (0.5 - p / 2.0)
    values, result, _ = analysis.compare_optimum(p, q, grid=51, refine_iters=2)
    got = [
        info.i_ab(q), info.i_ae_optimal(p, q), info.i_ae_antiphase(p, q),
        info.beta_sq_optimal(p, q), info.beta_sq_optimal(p, q, "minus"),
        attack.overlap_target(p, q), protocol.d_from_qber(q, p),
        *values.values(), result.best_value, analysis.verify_checks(p, q)[1],
    ]
    for row in curve_sweep(p, 3):
        got += dataclasses.astuple(row)
    for row in (crossing_point(p), *crossing_sweep(0.0, 0.5, 3)):
        got += [row.p, row.q_cross, row.q_line, row.margin]
    assert [type(v) for v in got] == [float] * len(got)
