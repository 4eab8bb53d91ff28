import math
import tracemalloc

import numpy as np
import pytest

from sixstate import attack, info, optimize
from sixstate.exceptions import ConstraintError, DomainError
from sixstate.optimize import (
    feasible_phase,
    grid_refine_maximize,
    lagrange_residual,
    phase_branch_scan,
    verify_root_pair,
)

from test_info import _i_ae_reference

# The search kernels broadcast over arrays; a numpy RuntimeWarning there
# (a square root or arc cosine of a negative round-off) is a fault.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestFeasiblePhase:
    def test_no_interaction_needs_aligned_phase(self):
        assert feasible_phase(0.5, 0.5, 0.1, 0.05) == pytest.approx(1.0)

    def test_half_error_rate_needs_opposed_phase(self):
        assert feasible_phase(0.5, 0.5, 0.0, 0.5) == pytest.approx(-1.0)

    def test_degenerate_products_infeasible(self):
        assert feasible_phase(1.0, 0.0, 0.0, 0.1) is None

    def test_degenerate_products_feasible_when_target_met(self):
        # gamma radii vanish but the beta product already equals the
        # target overlap of 1
        assert feasible_phase(1.0, 1.0, 0.1, 0.05) == 1.0

    def test_out_of_band_returns_none(self):
        assert feasible_phase(0.95, 0.9, 0.0, 0.45) is None

    def test_domain_error(self):
        with pytest.raises(DomainError):
            feasible_phase(0.5, 0.5, 0.2, 0.05)


class TestGridRefineMaximize:
    def test_reference_point(self):
        res = grid_refine_maximize(0.0, 0.1, grid=201, refine_iters=6)
        assert res.best_value == pytest.approx(info.i_ae_optimal(0.0, 0.1), abs=1e-6)
        # larger-weight twin is reported
        assert res.best_params.beta_a_sq == pytest.approx(
            info.beta_sq_optimal(0.0, 0.1, "plus"), abs=1e-4
        )
        assert res.branch == "phase0"
        assert res.evaluations > 0

    def test_no_interaction_point(self):
        res = grid_refine_maximize(0.1, 0.05, grid=51, refine_iters=3)
        assert abs(res.best_value) < 1e-11

    def test_beats_antiphase(self):
        res = grid_refine_maximize(0.05, 0.1, grid=101, refine_iters=5)
        assert res.best_value == pytest.approx(info.i_ae_optimal(0.05, 0.1), abs=1e-6)
        assert res.best_value > info.i_ae_antiphase(0.05, 0.1)

    def test_deterministic(self):
        a = grid_refine_maximize(0.05, 0.2, grid=61, refine_iters=4)
        b = grid_refine_maximize(0.05, 0.2, grid=61, refine_iters=4)
        assert a.best_value == b.best_value
        assert a.best_params == b.best_params
        assert a.evaluations == b.evaluations

    @pytest.mark.parametrize(
        "p,q", [(0.0, 0.05), (0.0, 0.3), (0.05, 0.25), (0.1, 0.4), (0.2, 0.45)]
    )
    def test_never_exceeds_closed_form(self, p, q):
        res = grid_refine_maximize(p, q, grid=51, refine_iters=4)
        opt = info.i_ae_optimal(p, q)
        assert res.best_value <= opt + 1e-9
        assert res.best_value == pytest.approx(opt, abs=1e-6)

    def test_best_params_satisfy_constraints(self):
        res = grid_refine_maximize(0.05, 0.15, grid=51, refine_iters=4)
        assert abs(res.best_params.overlap - attack.overlap_target(0.05, 0.15)) < 1e-10

    def test_coarse_grid_rejected(self):
        with pytest.raises(DomainError):
            grid_refine_maximize(0.0, 0.1, grid=50, refine_iters=2)

    @pytest.mark.parametrize(
        "p,q", [(0.0, 0.0), (0.9, 0.5), (0.3, 0.2), (0.05, 0.15), (0.95, 0.5 - 1e-13)]
    )
    def test_identical_through_reference_kernel(self, monkeypatch, p, q):
        result = repr(grid_refine_maximize(p, q))
        monkeypatch.setattr(optimize, "_i_ae", _i_ae_reference)
        assert repr(grid_refine_maximize(p, q)) == result


class TestLagrangeResidual:
    def test_small_at_optimum(self):
        res = lagrange_residual(attack.optimal_parameters(0.05, 0.15))
        assert not res.degenerate
        assert res.residual_norm < 1e-6

    def test_small_at_antiphase_point(self):
        res = lagrange_residual(attack.antiphase_parameters(0.05, 0.15))
        assert not res.degenerate
        assert res.residual_norm < 1e-6

    def test_large_at_perturbed_point(self):
        p, q = 0.05, 0.15
        ba = info.beta_sq_optimal(p, q, "plus") - 0.05
        bc = 1.0 - info.beta_sq_optimal(p, q, "plus")
        cos = feasible_phase(ba, bc, p, q)
        assert cos is not None
        res = lagrange_residual(attack.parameters_from_squares(p, q, ba, bc, cos))
        assert res.residual_norm > 1e-3

    def test_optimum_at_half_error_rate(self):
        # the stationary weight rounds to 1 - eps here; radii built from
        # its square root used to miss the overlap condition by ~1e-8
        p = np.linspace(0.0, 0.9, 16)[7]
        res = lagrange_residual(attack.optimal_parameters(p, 0.5))
        assert res.residual_norm < 1e-12

    def test_degenerate_at_no_interaction(self):
        res = lagrange_residual(attack.optimal_parameters(0.1, 0.05))
        assert res.degenerate
        assert res.residual_norm == 0.0

    def test_unconstrained_point_rejected(self):
        bad = attack.parameters_from_squares(0.05, 0.15, 0.9, 0.9, 1.0)
        with pytest.raises(ConstraintError):
            lagrange_residual(bad)

    def test_optimum_beats_random_feasible_points(self):
        # the fitted multipliers at the optimum leave a residual smaller
        # than at any sampled feasible non-stationary point
        p, q = 0.05, 0.15
        at_opt = lagrange_residual(attack.optimal_parameters(p, q)).residual_norm
        rng = np.random.default_rng(11)
        seen = 0
        while seen < 100:
            ba, bc = rng.uniform(0.0, 1.0, size=2)
            cos = feasible_phase(ba, bc, p, q)
            if cos is None:
                continue
            res = lagrange_residual(attack.parameters_from_squares(p, q, ba, bc, cos))
            assert res.residual_norm > at_opt
            seen += 1


class TestPhaseBranchScan:
    @pytest.mark.parametrize("p", np.linspace(0.0, 0.99, 10).tolist())
    def test_shared_values_equal_the_mirrored_objective(self, p):
        # The aligned arc's values also serve its mirror arc, which is not
        # returned: the objective at the exchanged weights must match bit
        # for bit.
        for q in np.linspace(p / 2.0, 0.5, 10).tolist():
            ba, bc, vals = phase_branch_scan(p, q, 1, samples=201)
            assert vals.tobytes() == optimize._objective(p, q, ba, bc).tobytes(), (p, q)
            assert vals.tobytes() == optimize._objective(p, q, bc, ba).tobytes(), (p, q)

    def test_aligned_arcs_track_the_boundary(self):
        t = attack.overlap_target(0.05, 0.2)
        ba, bc, _ = phase_branch_scan(0.05, 0.2, 1, samples=101)
        pb = np.sqrt(ba * bc)
        pg = np.sqrt((1 - ba) * (1 - bc))
        assert np.max(np.abs(pb + pg - t)) < 1e-12

    def test_opposed_branch_single_arc(self):
        t = attack.overlap_target(0.05, 0.2)
        ba, bc, _ = phase_branch_scan(0.05, 0.2, -1, samples=101)
        pb = np.sqrt(ba * bc)
        pg = np.sqrt((1 - ba) * (1 - bc))
        assert np.max(np.abs(pb - pg - t)) < 1e-12

    @pytest.mark.parametrize("p,q", [(0.0, 0.1), (0.05, 0.2), (0.1, 0.3)])
    def test_opposed_branch_stationary_point(self, p, q):
        # along the opposed-phase arc the objective has one interior
        # stationary point: equal weights (1+t)/2, where it takes the
        # antiphase closed-form value
        ba, bc, vals = phase_branch_scan(p, q, -1, samples=20001)
        diffs = np.sign(np.diff(vals))
        diffs = diffs[diffs != 0]
        assert np.count_nonzero(np.diff(diffs)) == 1
        k = int(np.argmin(vals))
        assert 0 < k < len(vals) - 1
        assert abs(ba[k] - bc[k]) < 1e-4
        t = attack.overlap_target(p, q)
        assert ba[k] == pytest.approx((1 + t) / 2, abs=1e-4)
        assert vals[k] == pytest.approx(info.i_ae_antiphase(p, q), abs=1e-6)

    def test_bad_sign(self):
        with pytest.raises(DomainError):
            phase_branch_scan(0.05, 0.2, 0)


class TestVerifyRootPair:
    @pytest.mark.parametrize("p,q", [(0.0, 0.1), (0.1, 0.3), (0.05, 0.45)])
    def test_interior_points(self, p, q):
        assert verify_root_pair(p, q)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
    def test_half_error_rate_degenerate_pair(self, p):
        assert verify_root_pair(p, 0.5)


def _boundary_candidates_loop(t, axis_vals, lo, hi):
    """Column-by-column reference for `optimize._boundary_candidates`."""
    out_a = []
    out_c = []
    for a in axis_vals:
        disc = (1.0 - t * t) * (1.0 - a)
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        base = t * math.sqrt(a)
        for u in (base + root, base - root):
            if not -1e-9 <= u <= 1.0 + 1e-9:
                continue
            c = min(max(u, 0.0), 1.0) ** 2
            if not (lo - 1e-15 <= c <= hi + 1e-15):
                continue
            pb = math.sqrt(a * c)
            pg = math.sqrt((1.0 - a) * (1.0 - c))
            if min(abs(pb + pg - t), abs(pb - pg - t)) > optimize._BOUNDARY_CUT:
                continue
            out_a.append(a)
            out_c.append(min(max(c, lo), hi))
    return np.array(out_a), np.array(out_c)


def _local_max_runs_loop(values):
    """Sample-by-sample reference for `optimize._local_max_runs`."""
    starts = [0]
    for i in range(1, len(values)):
        if values[i] != values[starts[-1]]:
            starts.append(i)
    out = []
    for j, s in enumerate(starts):
        left_ok = j == 0 or values[starts[j - 1]] < values[s]
        right_ok = j == len(starts) - 1 or values[starts[j + 1]] < values[s]
        if left_ok and right_ok:
            out.append(s)
    return out


def _grid_refine_mesh(p, q, grid=201, refine_iters=6):
    """Raveled-mesh reference for `grid_refine_maximize`.

    Each round builds the whole lattice with `meshgrid`, ravels it,
    appends both boundary sets and masks the concatenation once; its
    products and mask stay alive through the objective call.
    """
    t = attack.overlap_target(p, q)
    lo_a, hi_a, lo_c, hi_c = 0.0, 1.0, 0.0, 1.0
    best_a = best_c = best_j = None
    evaluations = 0
    for _ in range(refine_iters + 1):
        av = np.linspace(lo_a, hi_a, grid)
        cv = np.linspace(lo_c, hi_c, grid)
        aa, cc = np.meshgrid(av, cv, indexing="ij")
        aa = aa.ravel()
        cc = cc.ravel()
        ba_bound, bc_bound = optimize._boundary_candidates(t, av, lo_c, hi_c)
        bc_bound2, ba_bound2 = optimize._boundary_candidates(t, cv, lo_a, hi_a)
        aa = np.concatenate([aa, ba_bound, ba_bound2])
        cc = np.concatenate([cc, bc_bound, bc_bound2])
        pb, pg = optimize._products(aa, cc)
        feasible = optimize._feasible(t, pb, pg)
        if not np.any(feasible):
            break
        fa = aa[feasible]
        fc = cc[feasible]
        vals = optimize._objective(p, q, fa, fc)
        evaluations += vals.size
        k = int(np.argmax(vals))
        cand = (float(fa[k]), float(fc[k]), float(vals[k]))
        if best_j is None or cand[2] > best_j:
            best_a, best_c, best_j = cand
        if best_a < 0.5:
            mirror_j = float(optimize._objective(p, q, 1.0 - best_a, 1.0 - best_c))
            evaluations += 1
            if mirror_j >= best_j:
                best_a, best_c, best_j = 1.0 - best_a, 1.0 - best_c, mirror_j
        span_a, span_c = (hi_a - lo_a) / 10.0, (hi_c - lo_c) / 10.0
        lo_a, hi_a = max(0.0, best_a - span_a / 2.0), min(1.0, best_a + span_a / 2.0)
        lo_c, hi_c = max(0.0, best_c - span_c / 2.0), min(1.0, best_c + span_c / 2.0)
    cos = optimize._phase_cos(t, *optimize._products(best_a, best_c))
    params = attack.parameters_from_squares(p, q, best_a, best_c, cos)
    branch = "phase0" if cos >= 0.0 else "phasepi"
    return optimize.OptimizationResult(params, best_j, branch, evaluations)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _mesh_points():
    rng = np.random.default_rng(15)
    p = rng.uniform(0.0, 0.999, 30)
    seeded = list(zip(p.tolist(), rng.uniform(p / 2.0, 0.5).tolist()))
    # every value is ~0 at q = p/2, so the scan-order tie-break picks the point
    return seeded + [(0.0, 0.0), (0.1, 0.05), (0.9, 0.45), (0.3, 0.5)]


class TestArrayGeometry:
    """The array search geometry equals its loop references bit for bit."""

    @pytest.mark.parametrize("grid,refine_iters", [(51, 0), (77, 3), (201, 6)])
    def test_grid_matches_raveled_mesh(self, grid, refine_iters):
        for p, q in _mesh_points():
            got = grid_refine_maximize(p, q, grid, refine_iters)
            want = _grid_refine_mesh(p, q, grid, refine_iters)
            assert repr(got) == repr(want), (p, q)
            assert got.evaluations == want.evaluations, (p, q)

    @pytest.mark.parametrize("p,q", [(0.2, 0.3), (0.05, 0.15), (0.9, 0.49999)])
    def test_round_peak_below_raveled_mesh(self, p, q):
        # Built from its two axes, a round holds no raveled lattice copies.
        # Both loops run in this process, so the numpy version cancels.
        peak = _traced_peak(grid_refine_maximize, p, q)
        assert peak <= 0.85 * _traced_peak(_grid_refine_mesh, p, q)

    # at (0.11, 0.055) the overlap target rounds to 1 + 2e-16
    @pytest.mark.parametrize(
        "p,q",
        [(0.0, 0.0), (0.11, 0.055), (0.05, 0.1), (0.2, 0.3), (0.9, 0.5), (0.5, 0.5 - 1e-13)],
    )
    def test_boundary_candidates_match_loop(self, p, q):
        t = attack.overlap_target(p, q)
        rng = np.random.default_rng(5)
        windows = [(0.0, 1.0)] + [tuple(np.sort(rng.uniform(0.0, 1.0, 2))) for _ in range(20)]
        for lo, hi in windows:
            axis = np.linspace(lo, hi, 51)
            for lo_c, hi_c in windows[:3]:
                got = optimize._boundary_candidates(t, axis, lo_c, hi_c)
                want = _boundary_candidates_loop(t, axis, lo_c, hi_c)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()

    def test_local_max_runs_match_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            vals = rng.integers(0, 4, size=int(rng.integers(1, 25))).astype(float)
            assert optimize._local_max_runs(vals).tolist() == _local_max_runs_loop(vals)
        for sign in (1, -1):
            _, _, vals = phase_branch_scan(0.2, 0.3, sign, samples=801)
            assert optimize._local_max_runs(vals).tolist() == _local_max_runs_loop(vals)
