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
        assert result == repr(_grid_refine_mesh(p, q))
        sizes = []

        def reference(p, q, ba, bc, ga, gc):
            if isinstance(ba, np.ndarray):
                sizes.append(ba.size)
            return _i_ae_reference(p, q, ba, bc, ga, gc)

        monkeypatch.setattr(optimize, "_i_ae", reference)
        assert repr(grid_refine_maximize(p, q)) == result
        # Every round's candidates reach the kernel through this binding,
        # in one or two array calls; the mirror check passes scalars.
        assert 7 <= len(sizes) <= 14


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


def _objective_rounds(monkeypatch):
    """Record the objective's array calls, split into the rounds of a search.

    Returns a function that returns the calls made since it last ran: a
    list per round of the sets of ``(beta_a_sq, beta_c_sq)`` pairs each
    array call held.  A round starts at its first `_boundary_candidates`
    call, which both searches make before they evaluate anything.
    """
    log = []
    kernel, boundary = info._i_ae, optimize._boundary_candidates

    def recording(p, q, ba, bc, ga, gc):
        if isinstance(ba, np.ndarray):
            log.append(set(zip(ba.tolist(), bc.tolist())))
        return kernel(p, q, ba, bc, ga, gc)

    def marking(*args):
        if not log or log[-1] is not None:
            log.append(None)
        return boundary(*args)

    monkeypatch.setattr(optimize, "_i_ae", recording)
    monkeypatch.setattr(optimize, "_boundary_candidates", marking)

    def rounds():
        out = []
        for entry in log:
            if entry is None:
                out.append([])
            else:
                out[-1].append(entry)
        log.clear()
        return out

    return rounds


def _mesh_points():
    rng = np.random.default_rng(15)
    p = rng.uniform(0.0, 0.999, 30)
    seeded = list(zip(p.tolist(), rng.uniform(p / 2.0, 0.5).tolist()))
    # every value is ~0 at q = p/2, so the scan-order tie-break picks the point;
    # just above it the values are flat within the chord margin on long runs
    near_flat = [(p, p / 2.0 + dq) for p in (0.1, 0.5, 0.999) for dq in (1e-12, 1e-9, 1e-6)]
    return seeded + near_flat + [(0.0, 0.0), (0.1, 0.05), (0.9, 0.45), (0.3, 0.5),
                                 (0.999, 0.4995), (0.999, 0.5)]


class TestArrayGeometry:
    """The array search geometry equals its loop references bit for bit."""

    @pytest.mark.parametrize("grid,refine_iters", [(51, 0), (77, 3), (201, 6)])
    def test_grid_matches_raveled_mesh(self, grid, refine_iters):
        for p, q in _mesh_points():
            got = grid_refine_maximize(p, q, grid, refine_iters)
            want = _grid_refine_mesh(p, q, grid, refine_iters)
            assert repr(got) == repr(want), (p, q)
            assert got.evaluations == want.evaluations, (p, q)

    @pytest.mark.parametrize("grid", [51, 201])
    def test_lattice_products_match_broadcast(self, grid):
        # round 0's axes and a refined window's, with exact 0 and 1 on both
        axes = [
            (np.linspace(0.0, 1.0, grid), np.linspace(0.0, 1.0, grid)),
            (np.linspace(0.95, 1.0, grid), np.linspace(0.0, 0.05, grid)),
            (np.linspace(0.3, 0.4, grid), np.linspace(0.61, 0.62, grid)),
        ]
        for av, cv in axes:
            pb, pg = (np.full((grid, grid), np.nan) for _ in range(2))
            got = optimize._lattice_products(av, cv, pb, pg)
            want = optimize._products(av[:, None], cv)
            assert got[0] is pb and got[1] is pg
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("grid", [51, 77])
    def test_round_zero_evaluates_one_of_each_mirror_pair(self, monkeypatch, grid):
        boundary_candidates = optimize._boundary_candidates
        rounds = _objective_rounds(monkeypatch)
        axis = np.linspace(0.0, 1.0, grid)
        lower = {(a, c) for i, a in enumerate(axis.tolist()) for c in axis[:i].tolist()}
        for p, q in _mesh_points():
            want = _grid_refine_mesh(p, q, grid, 0)
            ((mesh,),) = rounds()
            got = grid_refine_maximize(p, q, grid, 0)
            (calls,) = rounds()
            assert len(calls) <= 2, (p, q)
            seen = set().union(*calls)
            assert seen <= mesh, (p, q)
            # no lattice point below the diagonal, unless it is also one of
            # the boundary points, which round 0 takes from the first set
            ba, bc = boundary_candidates(attack.overlap_target(p, q), axis, 0.0, 1.0)
            assert not seen & lower - set(zip(ba.tolist(), bc.tolist())), (p, q)
            mirrored = {(c, a) for a, c in seen}
            if q == p / 2.0:
                # the objective is round-off alone, so nothing is skipped
                assert seen | mirrored == mesh, (p, q)
            assert got.evaluations == want.evaluations, (p, q)
            assert repr(got) == repr(want), (p, q)

    @pytest.mark.parametrize("p,q,flat", [
        (0.2, 0.3, False), (0.05, 0.15, False), (0.9, 0.49999, False),
        (0.0, 0.0, True), (0.1, 0.05, True), (0.9, 0.45, True),
    ])
    def test_refined_rounds_evaluate_what_convexity_leaves(self, monkeypatch, p, q, flat):
        rounds = _objective_rounds(monkeypatch)
        want = _grid_refine_mesh(p, q)
        mesh = [candidates for (candidates,) in rounds()[1:]]
        got = grid_refine_maximize(p, q)
        grid_rounds = rounds()[1:]
        assert repr(got) == repr(want)
        assert len(grid_rounds) == len(mesh) == 6
        for calls, candidates in zip(grid_rounds, mesh):
            assert len(calls) <= 2
            seen = set().union(*calls)
            assert seen <= candidates
            if flat:
                assert seen == candidates
        evaluated = sum(len(c) for calls in grid_rounds for c in calls)
        if not flat:
            assert evaluated <= sum(map(len, mesh)) / 10

    @pytest.mark.parametrize("p,q", [(0.2, 0.3), (0.05, 0.15), (0.9, 0.49999)])
    def test_round_peak_below_raveled_mesh(self, p, q):
        # Built from its two axes, a round holds no raveled lattice copies,
        # and the objective runs on the few points the chords leave.  Both
        # loops run in this process, so the numpy version cancels.  The
        # ratios read 0.28, 0.31 and 0.25; the bound leaves 1.3x of room.
        peak = _traced_peak(grid_refine_maximize, p, q)
        assert peak <= 0.4 * _traced_peak(_grid_refine_mesh, p, q)

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


def _xlog2_decimal(x):
    return x * x.ln() / decimal.Decimal(2).ln() if x else decimal.Decimal(0)


def _tau_decimal(x, y):
    return _xlog2_decimal(x) + _xlog2_decimal(y) - _xlog2_decimal(x + y)


def _objective_decimal(p, q, ba, bc):
    """The objective at exact (ba, bc), in 50 digits, on `_scales`' float coefficients.

    Weighted by those floats the objective is still convex in (ba, bc):
    the function whose chords bound the grid search's computed values.
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


def _chord_interior_loop(lattice, cv, rows, first, last, v_first, v_last, floor):
    """Row-by-row reference for `optimize._chord_interior`, from its docstring."""
    cv = cv.tolist()
    out_i, out_j = [], []
    for i, f, l, v0, v1 in zip(rows.tolist(), first.tolist(), last.tolist(),
                               v_first.tolist(), v_last.tolist()):
        if v0 < floor and v1 < floor:
            continue
        cut = None
        if (v0 >= floor) != (v1 >= floor):
            cut = cv[f] + (cv[l] - cv[f]) * ((floor - v0) / (v1 - v0))
        for j in range(f + 1, l):
            if cut is not None and (cv[j] < cut if v1 >= floor else cv[j] > cut):
                continue
            if lattice[i, j]:
                out_i.append(i)
                out_j.append(j)
    return out_i, out_j


def _random_rows(rng, grid):
    """A lattice mask of runs with holes, its row ends and random end values."""
    lattice = np.zeros((grid, grid), dtype=bool)
    for i in range(grid):
        lo, hi = np.sort(rng.integers(0, grid, 2))
        lattice[i, lo : hi + 1] = rng.uniform(size=hi - lo + 1) < 0.9
    rows = np.flatnonzero(lattice.any(axis=1))
    first = lattice.argmax(axis=1)[rows]
    last = grid - 1 - lattice[:, ::-1].argmax(axis=1)[rows]
    return lattice, rows, first, last, rng.uniform(size=rows.size), rng.uniform(size=rows.size)


class TestChordPruning:
    """The row chords of grid_refine_maximize skip only points that cannot win."""

    def test_objective_round_off_far_below_margin(self):
        # The chords hold for the convex function; the computed values stray
        # from it by round-off, which the margin must bound with room.
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
        assert 0.0 < worst <= optimize._MARGIN / 1000

    def test_chord_interior_matches_loop(self):
        rng = np.random.default_rng(8)
        for grid in (5, 33, 201):
            cv = np.linspace(rng.uniform(0.0, 0.5), rng.uniform(0.5, 1.0), grid)
            for _ in range(20):
                lattice, *ends = _random_rows(rng, grid)
                floor = rng.uniform()
                got = optimize._chord_interior(lattice, cv, *ends, floor)
                want = _chord_interior_loop(lattice, cv, *ends, floor)
                assert [g.tolist() for g in got] == list(want)

    def test_chord_crossing_on_a_lattice_column_is_kept(self):
        # One row over the columns j/32, each exact; its chord from 0 to 1
        # (or 1 to 0) crosses floor j/32 on column j (or 32 - j).
        cv = np.arange(33) / 32.0
        ends = np.ones((1, 33), dtype=bool), cv, np.array([0]), np.array([0]), np.array([32])
        for j in range(33):
            rising = optimize._chord_interior(*ends, np.zeros(1), np.ones(1), j / 32.0)
            assert rising[1].tolist() == list(range(max(j, 1), 32))
            falling = optimize._chord_interior(*ends, np.ones(1), np.zeros(1), j / 32.0)
            assert falling[1].tolist() == list(range(1, min(32 - j, 31) + 1))

    @pytest.mark.parametrize("p,q", [(0.2, 0.3), (0.1, 0.05), (0.3, 0.150000001), (0.9, 0.49999)])
    def test_chord_interior_matches_loop_in_searches(self, monkeypatch, p, q):
        calls = []

        def checked(*args):
            got = chord(*args)
            calls.append(([g.tolist() for g in got], list(_chord_interior_loop(*args))))
            return got

        chord = optimize._chord_interior
        monkeypatch.setattr(optimize, "_chord_interior", checked)
        grid_refine_maximize(p, q)
        assert len(calls) == 7
        for got, want in calls:
            assert got == want
