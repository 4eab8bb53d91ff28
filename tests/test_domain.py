"""Whole-domain properties of the (p, q) domain and of the count bounds.

Every check holds on the lattice ``p = linspace(0, 0.99, 10)`` and, for
each p, ``q = linspace(p/2, 1/2, 10)``, both q endpoints included, and
on seeded uniform random points of the domain.  Noise raises the
threshold over the whole crossing domain.  Every count is refused when
it lies above its bound, before anything is allocated, and when it is
NaN, infinite, beyond the float range or not a whole number; so is a
noise weight beyond the float range.
"""

import math
import tracemalloc

import numpy as np
import pytest

from sixstate import analysis, attack, cli, info, optimize, protocol
from sixstate.exceptions import DomainError


_LATTICE_P = np.linspace(0.0, 0.99, 10).tolist()


def _random_points(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 0.99, n)
    return list(zip(p.tolist(), rng.uniform(p / 2.0, 0.5).tolist()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "points",
    [[(p, q) for q in np.linspace(p / 2.0, 0.5, 10).tolist()] for p in _LATTICE_P]
    + [_random_points(10, seed=2008)],
    ids=[str(p) for p in _LATTICE_P] + ["random"],
)
def test_all_checks_hold(points, capsys):
    for p, q in points:
        assert cli.main(["verify", "--p", repr(p), "--q", repr(q)]) == 0, (p, q)
        assert "FAIL" not in capsys.readouterr().out
        grid = optimize.grid_refine_maximize(p, q).best_value
        assert abs(grid - info.i_ae_optimal(p, q)) <= 1e-9, (p, q)
        res = optimize.lagrange_residual(attack.optimal_parameters(p, q))
        assert res.residual_norm <= 1e-12, (p, q)
        if q > p / 2.0:
            assert optimize.verify_root_pair(p, q), (p, q)


def test_noise_raises_the_threshold():
    # Noise on Alice's side raises the threshold above the straight line,
    # as noisy preprocessing does (Kraus, Gisin & Renner, PRL 95, 080501).
    # The margins themselves are not monotone up to p = 0.5.
    rows = analysis.crossing_sweep(0.0, 0.5, 51)[1:]
    assert all(r.margin > 0.0 for r in rows)
    q_cross = [r.q_cross for r in rows]
    assert all(a < b for a, b in zip(q_cross, q_cross[1:]))


# Each count: a call taking it, and its largest accepted value.
_COUNTS = {
    "grid": (lambda n: optimize.grid_refine_maximize(0.05, 0.1, grid=n), 2001),
    "refine_iters": (
        lambda n: optimize.grid_refine_maximize(0.05, 0.1, refine_iters=n), 30),
    "samples": (lambda n: optimize.phase_branch_scan(0.05, 0.1, 1, samples=n), 100_001),
    "curve_steps": (lambda n: analysis.curve_sweep(0.05, steps=n), 100_000),
    "crossing_steps": (lambda n: analysis.crossing_sweep(0.0, 0.5, steps=n), 10_000),
}


@pytest.mark.parametrize("count", list(_COUNTS))
def test_size_bound_refused_before_allocating(count):
    call, bound = _COUNTS[count]
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            call(bound + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("count", list(_COUNTS))
def test_count_not_finite_refused(count, value):
    call, _ = _COUNTS[count]
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("count", list(_COUNTS))
def test_count_not_whole_refused(count):
    call, bound = _COUNTS[count]
    with pytest.raises(DomainError, match="not a whole number"):
        call(bound - 0.5)


@pytest.mark.parametrize("value", [np.int64(51), 51.0], ids=["int64", "float"])
def test_whole_count_of_any_type_accepted(value):
    assert protocol.check_count(value, 51, 2001, "grid") == 51
    assert repr(optimize.grid_refine_maximize(0.05, 0.1, grid=value, refine_iters=1)) == repr(
        optimize.grid_refine_maximize(0.05, 0.1, grid=51, refine_iters=1))


@pytest.mark.parametrize("call", [protocol.check_domain, info.i_ae_optimal],
                         ids=["check_domain", "i_ae_optimal"])
def test_noise_beyond_float_range_refused(call):
    with pytest.raises(DomainError):
        call(10 ** 400, 0.1)
