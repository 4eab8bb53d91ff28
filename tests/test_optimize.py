import dataclasses
import decimal
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
from sixstate.protocol import check_domain

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
        assert res.best_value <= opt + _ABOVE_CLOSED
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
        shapes = []

        def reference(p, q, ba, bc, ga, gc):
            if isinstance(ba, np.ndarray):
                shapes.append(ba.shape)
            return _i_ae_reference(p, q, ba, bc, ga, gc)

        monkeypatch.setattr(optimize, "_i_ae", reference)
        assert repr(grid_refine_maximize(p, q)) == result
        # Every round reaches the kernel through this binding, in one array
        # call on both arcs' samples; the corner passes scalars.
        assert shapes == [(2, 201)] * 7

    # at 0.49999 the +1 arc's best sample lies near its end, and the -1
    # arc's best samples lie at its ends, so windows reach past them
    @pytest.mark.parametrize("p,q", [(0.05, 0.15), (0.3, 0.49999), (0.9, 0.45)])
    def test_samples_lie_on_their_arcs(self, monkeypatch, p, q):
        calls = []

        def recording(p, q, ba, bc, ga, gc):
            calls.append((ba, bc))
            return info._i_ae(p, q, ba, bc, ga, gc)

        monkeypatch.setattr(optimize, "_i_ae", recording)
        grid_refine_maximize(p, q, grid=51, refine_iters=4)
        t = min(attack.overlap_target(p, q), 1.0)
        # the corner, then one call per round: the -1 arc in row 0, the +1
        # arc in row 1.  Near an arc's end a weight is close to 1 and
        # 1 - weight keeps few digits: the products stray by up to 2.2e-10
        # in the last round.  A sample past an end lies on the other arc,
        # ~1e-5 or more away.
        assert calls[0] == (0.0, 0.0)
        for k, (ba, bc) in enumerate(calls[1:]):
            assert ba.shape == bc.shape == (2, 51), k
            pb, pg = optimize._products(ba, bc)
            assert np.max(np.abs(pb[0] - pg[0] - t)) < 1e-8, (k, p, q)
            assert np.max(np.abs(pb[1] + pg[1] - t)) < 1e-8, (k, p, q)
        assert len(calls) == 6


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
        # an overlap 1e-7 off its target is past the 1e-8 bound
        opt = attack.optimal_parameters(0.05, 0.15)
        cos = 1.0 - 1e-7 / (opt.r_gamma_a * opt.r_gamma_c)
        bad = dataclasses.replace(opt, delta_phi=math.acos(cos))
        assert opt.overlap - bad.overlap == pytest.approx(1e-7, rel=1e-6)
        with pytest.raises(ConstraintError, match="overlap condition"):
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

    def test_arcs_match_plain_expressions(self):
        # The grid search shares phase_branch_scan's arc sampler; the arrays,
        # and so verify_root_pair, stay those of the plain expressions.
        for p in np.linspace(0.0, 0.999, 12).tolist():
            for q in (p / 2.0, p / 2.0 + 1e-12, (p / 2.0 + 0.5) / 2.0, 0.5 - 1e-13, 0.5):
                for sign, samples in ((1, 2), (1, 201), (-1, 201), (1, 4001), (-1, 4001)):
                    got = phase_branch_scan(p, q, sign, samples)
                    want = _phase_branch_scan_reference(p, q, sign, samples)
                    for g, w in zip(got, want):
                        assert g.tobytes() == w.tobytes(), (p, q, sign, samples)

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

    @pytest.mark.parametrize("shape, paired", [
        ("at the roots", True),
        ("off the roots", False),
        ("two maxima", False),
    ])
    def test_stand_in_arcs(self, shape, paired, monkeypatch):
        # arcs through (b, 1 - b): the analytic roots sum to 1, so a single
        # maximum at b = plus sits on both roots; the two maxima are at
        # b = 0.65 and 0.85
        p, q = 0.05, 0.15
        plus = info.beta_sq_optimal(p, q, "plus")
        ba = np.linspace(0.5, 1.0, 501)
        vals = {
            "at the roots": -(ba - plus) ** 2,
            "off the roots": -(ba - plus + 0.01) ** 2,
            "two maxima": -((ba - 0.75) ** 2 - 0.01) ** 2,
        }[shape]
        monkeypatch.setattr(optimize, "phase_branch_scan",
                            lambda p, q, cos_sign, samples: (ba, 1.0 - ba, vals))
        assert verify_root_pair(p, q) is paired


# The objective's computed values stray from the convex function by at most
# this much (TestChordPruning measures it), so a boundary sample may read
# up to twice it above the closed form: its own round-off and the closed
# form's.
_ROUND_OFF = 1e-15
_ABOVE_CLOSED = 2 * _ROUND_OFF
# The full mesh admits points up to 1e-12 outside the feasible set, where
# the objective can read that much above the set's maximum, twice over.
_MESH_EXCESS = 2e-12


def _boundary_candidates_loop(t, axis_vals, lo, hi, cut=1e-9):
    """Exact overlap-boundary points above each mesh column, one at a time.

    For each fixed first coordinate a, solves ``pb +- pg = t`` for the
    second coordinate.  Squaring merges the two signs into one
    quadratic, so each root is kept only if one of the unsquared
    equations holds within cut.
    """
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
            if min(abs(pb + pg - t), abs(pb - pg - t)) > cut:
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
    """Full-mesh reference for `grid_refine_maximize`'s best value.

    Each round builds the whole grid x grid lattice over the two squared
    weights, appends the exact boundary points above each axis value,
    keeps the feasible points and evaluates all of them; the window then
    shrinks by 10 around the best point.  It searches the interior too,
    so it does not rest on the convexity the boundary search uses.
    """
    t = attack.overlap_target(p, q)
    lo_a, hi_a, lo_c, hi_c = 0.0, 1.0, 0.0, 1.0
    best_a = best_c = best_j = None
    for _ in range(refine_iters + 1):
        av = np.linspace(lo_a, hi_a, grid)
        cv = np.linspace(lo_c, hi_c, grid)
        aa, cc = np.meshgrid(av, cv, indexing="ij")
        aa = aa.ravel()
        cc = cc.ravel()
        ba_bound, bc_bound = _boundary_candidates_loop(t, av, lo_c, hi_c)
        bc_bound2, ba_bound2 = _boundary_candidates_loop(t, cv, lo_a, hi_a)
        aa = np.concatenate([aa, ba_bound, ba_bound2])
        cc = np.concatenate([cc, bc_bound, bc_bound2])
        pb, pg = optimize._products(aa, cc)
        feasible = optimize._feasible(t, pb, pg)
        if not np.any(feasible):
            break
        fa = aa[feasible]
        fc = cc[feasible]
        vals = optimize._objective(p, q, fa, fc)
        k = int(np.argmax(vals))
        cand = (float(fa[k]), float(fc[k]), float(vals[k]))
        if best_j is None or cand[2] > best_j:
            best_a, best_c, best_j = cand
        if best_a < 0.5:
            mirror_j = float(optimize._objective(p, q, 1.0 - best_a, 1.0 - best_c))
            if mirror_j >= best_j:
                best_a, best_c, best_j = 1.0 - best_a, 1.0 - best_c, mirror_j
        span_a, span_c = (hi_a - lo_a) / 10.0, (hi_c - lo_c) / 10.0
        lo_a, hi_a = max(0.0, best_a - span_a / 2.0), min(1.0, best_a + span_a / 2.0)
        lo_c, hi_c = max(0.0, best_c - span_c / 2.0), min(1.0, best_c + span_c / 2.0)
    return best_j


def _grid_refine_per_arc(p, q, grid=201, refine_iters=6):
    """`grid_refine_maximize` with one kernel call per round and arc.

    Each arc is searched alone, its samples written as the plain angle
    expressions of `optimize._arc`; the block search must match it bit
    for bit.
    """
    p, q = check_domain(p, q)
    t = attack.overlap_target(p, q)
    theta = math.acos(min(t, 1.0))
    best = (float(optimize._objective(p, q, 0.0, 0.0)), 0.0, 0.0)
    for cos_sign, end in ((-1, theta), (1, math.pi / 2.0 - theta)):
        lo, hi = 0.0, end
        arc = None
        for _ in range(refine_iters + 1):
            base = np.linspace(lo, hi, grid)
            alpha, chi = (base + theta, base) if cos_sign > 0 else (base, theta - base)
            ba, bc = np.cos(alpha) ** 2, np.cos(chi) ** 2
            vals = optimize._objective(p, q, ba, bc)
            k = int(vals.argmax())
            if arc is None or vals[k] > arc[0]:
                arc, mid = (float(vals[k]), float(ba[k]), float(bc[k])), float(base[k])
            span = (hi - lo) / 10.0
            lo, hi = max(0.0, mid - span / 2.0), min(end, mid + span / 2.0)
        if arc[0] >= best[0]:
            best = arc
    value, ba, bc = best
    ba, bc = max(ba, bc), min(ba, bc)
    cos = optimize._phase_cos(t, *optimize._products(ba, bc))
    return optimize.OptimizationResult(
        best_params=attack.parameters_from_squares(p, q, ba, bc, cos),
        best_value=value,
        branch="phase0" if cos >= 0.0 else "phasepi",
        evaluations=2 * (refine_iters + 1) * grid + 1,
    )


def _phase_branch_scan_reference(p, q, cos_sign, samples):
    """`optimize.phase_branch_scan`'s arcs as plain expressions, checks aside."""
    t = attack.overlap_target(p, q)
    theta = math.acos(min(max(t, -1.0), 1.0))
    if cos_sign > 0:
        base = np.linspace(0.0, math.pi / 2.0 - theta, samples)
        alpha, chi = base + theta, base
    else:
        base = np.linspace(0.0, theta, samples)
        alpha, chi = base, theta - base
    ba = np.cos(alpha) ** 2
    bc = np.cos(chi) ** 2
    return ba, bc, optimize._objective(p, q, ba, bc)


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
    # every value is ~0 at q = p/2; just above it the values are flat
    # within round-off along long stretches of both arcs
    near_flat = [(p, p / 2.0 + dq) for p in (0.1, 0.5, 0.999) for dq in (1e-12, 1e-9, 1e-6)]
    return seeded + near_flat + [(0.0, 0.0), (0.1, 0.05), (0.9, 0.45), (0.3, 0.5),
                                 (0.999, 0.4995), (0.999, 0.5)]


class TestArrayGeometry:
    """The boundary search against a full mesh, the closed form and loop references."""

    @pytest.mark.parametrize("grid,refine_iters", [(51, 0), (77, 3), (201, 6)])
    def test_grid_matches_raveled_mesh(self, grid, refine_iters):
        # The mesh searches the interior as well; the boundary search must
        # find as much, within what the mesh's feasibility slack adds.
        # Near p = 1 the closed form cancels (0.999, 0.4995 reads 5.6e-14
        # above it), so the upper bound holds for p <= 0.95.
        for p, q in _mesh_points():
            got = grid_refine_maximize(p, q, grid, refine_iters)
            want = _grid_refine_mesh(p, q, grid, refine_iters)
            assert got.best_value >= want - _MESH_EXCESS, (p, q)
            if p <= 0.95:
                assert got.best_value <= info.i_ae_optimal(p, q) + _ABOVE_CLOSED, (p, q)
            assert got.evaluations == 2 * (refine_iters + 1) * grid + 1, (p, q)

    # At odd grid the +1 arc's midpoint, the paper's optimum, is a sample;
    # an even grid must close in on it by refinement.  The shortfalls read
    # 2.13e-11 at (52, 3) and 4.4e-16 at (100, 6).
    @pytest.mark.parametrize("grid,refine_iters,shortfall", [(52, 3, 1e-10), (100, 6, _ABOVE_CLOSED)])
    def test_even_grid_closes_on_the_optimum(self, grid, refine_iters, shortfall):
        for p, q in _mesh_points():
            got = grid_refine_maximize(p, q, grid, refine_iters).best_value
            opt = info.i_ae_optimal(p, q)
            assert got >= opt - shortfall, (p, q)
            if p <= 0.95:
                assert got <= opt + _ABOVE_CLOSED, (p, q)

    # q = p/2 gives the -1 arc a zero-width window and q = 1/2 the +1 arc,
    # where numpy's linspace takes another formula; each row must keep
    # the bits it has when sampled alone.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid,refine_iters", [(51, 0), (77, 3), (201, 6), (2001, 2), (51, 30)])
    def test_block_matches_per_arc_search(self, grid, refine_iters):
        rng = np.random.default_rng(34)
        bulk = rng.uniform(0.0, 0.999, 200)
        points = _mesh_points() + list(zip(bulk.tolist(), rng.uniform(bulk / 2.0, 0.5).tolist()))
        for p in np.linspace(0.0, 0.999, 12).tolist():
            points += [(p, p / 2.0), (p, p / 2.0 + 1e-12), (p, 0.5 - 1e-13), (p, 0.5)]
        for p, q in points:
            got = repr(grid_refine_maximize(p, q, grid, refine_iters))
            assert got == repr(_grid_refine_per_arc(p, q, grid, refine_iters)), (p, q)

    @pytest.mark.parametrize("p,q", [(0.2, 0.3), (0.05, 0.15), (0.9, 0.49999)])
    def test_peak_at_largest_grid(self, p, q):
        # A round holds a few arrays of 2 x grid floats, so the peak is
        # linear in grid; it read ~419 kB at grid 2001.
        assert _traced_peak(grid_refine_maximize, p, q, optimize._MAX_GRID) < 1_000_000

    def test_local_max_runs_match_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            vals = rng.integers(0, 4, size=int(rng.integers(1, 25))).astype(float)
            assert optimize._local_max_runs(vals).tolist() == _local_max_runs_loop(vals)
        for sign in (1, -1):
            _, _, vals = phase_branch_scan(0.2, 0.3, sign, samples=801)
            assert optimize._local_max_runs(vals).tolist() == _local_max_runs_loop(vals)


def _xlog2_decimal(x):
    return x * x.ln() / decimal.Decimal(2).ln() if x else decimal.Decimal(0)


def _tau_decimal(x, y):
    return _xlog2_decimal(x) + _xlog2_decimal(y) - _xlog2_decimal(x + y)


def _objective_decimal(p, q, ba, bc):
    """The objective at exact (ba, bc), in 50 digits, on `_scales`' float coefficients.

    Weighted by those floats the objective is still convex in (ba, bc):
    the function whose chords bound its values inside the feasible set.
    """
    half, d, pref = (decimal.Decimal(v) for v in info._scales(p, q))
    keep = decimal.Decimal(1.0 - float(half))
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        total = decimal.Decimal(0)
        for a, c in ((decimal.Decimal(ba), decimal.Decimal(bc)),
                     (1 - decimal.Decimal(ba), 1 - decimal.Decimal(bc))):
            total += _tau_decimal(keep * a + half * c, half * a + keep * c)
        return 1 + pref / 2 * total + d * _tau_decimal(keep, half)


class TestChordPruning:
    """Chords of the convex objective prune the feasible set's interior.

    Every interior point lies on a segment between two boundary points,
    and a convex function there is at most the larger end value, so the
    grid search samples only the boundary.
    """

    def test_objective_round_off_far_below_margin(self):
        # The chords hold for the convex function; the computed values stray
        # from it by round-off, which stays within _ROUND_OFF.
        rng = np.random.default_rng(30)
        p = np.r_[rng.uniform(0.0, 0.999, 97), 0.0, 0.5, 0.999]
        q = p / 2.0 + rng.uniform(size=p.size) * (0.5 - p / 2.0)
        q[:10], q[10:20] = p[:10] / 2.0, 0.5
        worst = 0.0
        for p_, q_ in zip(p.tolist(), q.tolist()):
            ba, bc = rng.uniform(size=(2, 10))
            ba[:2], bc[1:3] = (0.0, 1.0), (0.0, 1.0)
            got = optimize._objective(p_, q_, ba, bc)
            for a, c, v in zip(ba.tolist(), bc.tolist(), got.tolist()):
                err = abs(decimal.Decimal(v) - _objective_decimal(p_, q_, a, c))
                worst = max(worst, float(err))
        assert 0.0 < worst <= _ROUND_OFF
