"""Whole-domain properties of the (p, q) domain and of the count bounds.

Every check holds on the lattice ``p = linspace(0, 0.99, 10)`` and, for
each p, ``q = linspace(p/2, 1/2, 10)``, both q endpoints included, and
on seeded uniform random points of the domain; `analysis.verify_checks`
passes all seven checks on a seeded lattice of 2,000 points that holds
q = p/2 and q = 1/2 in every p row.  As p -> 1, down to 1 - p = 1e-8,
`verify_checks` and `grid_refine_maximize` return without raising.
Noise raises the threshold over the whole crossing domain, and on every
search bracket Bob's advantage over Eve falls strictly.  Every count is
refused when it lies above its bound, before anything is allocated, and
when it is NaN, infinite, beyond the float range or not a whole number;
so is a noise weight beyond the float range.  Text, None, complex
numbers and lists are refused as scalars, even where float() could parse
them.
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


def _verify_lattice(rows, per_row, seed):
    """(p, q) points: p stratified over [0, 0.95], both ends included; each
    row holds q = p/2, q = 1/2 and per_row - 2 seeded q in between."""
    rng = np.random.default_rng(seed)
    ps = [0.0, *((np.arange(1, rows - 1) + rng.uniform(size=rows - 2)) * 0.95 / (rows - 1)),
          0.95]
    return [(p, q) for p in ps
            for q in (p / 2.0, 0.5, *rng.uniform(p / 2.0, 0.5, per_row - 2).tolist())]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_checks_whole_domain():
    # The p -> 1 band, where checks may fail, is tested below.
    points = _verify_lattice(100, 20, seed=1818)
    assert len(points) == 2000
    for p, q in points:
        checks, advantage = analysis.verify_checks(p, q)
        failed = [name for name, passed, _ in checks if not passed]
        assert len(checks) == 7 and not failed, (p, q, failed)
        assert math.isfinite(advantage), (p, q)


def test_verify_near_full_noise(capsys):
    # the (p, q) form of the kept-signal weight cancels as p -> 1: taken
    # from it, the outcome quadruple sums to 1 + 5.6e-12 here
    assert cli.main(["verify", "--p", "0.99999", "--q", "0.5"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_optimize_near_full_noise(capsys):
    # overlap_target rounds to 1 + 5.6e-10 at q = p/2; taken as it is, it
    # leaves no round-0 point feasible, not even (0, 0)
    assert cli.main(["optimize", "--p", "0.9999999", "--q", "0.49999995"]) == 0
    assert "i_ae_grid" in capsys.readouterr().out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_near_full_noise_band_does_not_raise():
    # Bound: 1 - p down to 1e-8, four values per decade, at q = p/2, q = 1/2
    # and one seeded q between.  Below 1e-8 lagrange_residual's 1e-8 overlap
    # check still raises.  Checks may FAIL in this band; none may raise.
    rng = np.random.default_rng(2121)
    for gap in np.logspace(-2.0, -8.0, 25).tolist():
        p = 1.0 - gap
        for q in (p / 2.0, 0.5, float(rng.uniform(p / 2.0, 0.5))):
            checks, advantage = analysis.verify_checks(p, q)
            assert len(checks) == 7 and math.isfinite(advantage), (p, q)
            result = optimize.grid_refine_maximize(p, q)
            assert math.isfinite(result.best_value), (p, q)


def test_noise_raises_the_threshold():
    # Noise on Alice's side raises the threshold above the straight line,
    # as noisy preprocessing does (Kraus, Gisin & Renner, PRL 95, 080501).
    # The margins themselves are not monotone up to p = 0.5.
    rows = analysis.crossing_sweep(0.0, 0.5, 51)[1:]
    assert all(r.margin > 0.0 for r in rows)
    q_cross = [r.q_cross for r in rows]
    assert all(a < b for a, b in zip(q_cross, q_cross[1:]))


def test_advantage_strictly_decreasing():
    # Why the crossing search may certify one crossing on a grid of 33
    # points: on (0, 1/2), I_AB'(q) = log2(q / (1-q)) < 0 and Eve's optimum
    # does not decrease in q, so Bob's advantage falls strictly on every
    # search bracket.  One row at a time keeps the memory small.
    for p in np.linspace(0.0, 0.5, 501).tolist():
        q = np.linspace(p / 2.0 + 1e-9, 0.5 - 1e-9, 20_001)
        steps = np.diff(analysis._advantage(info._noise(p), q))
        assert steps.max() < 0.0, (p, steps.max())


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


# Each scalar entry point, called with one argument in place of a number,
# and a number that argument takes.
_SCALAR_CALLS = {
    "i_ab": (info.i_ab, 0.1),
    "i_ae_optimal": (lambda x: info.i_ae_optimal(x, 0.2), 0.1),
    "beta_sq_optimal": (lambda x: info.beta_sq_optimal(0.05, x), 0.1),
    "crossing_point": (analysis.crossing_point, 0.1),
    "crossing_sweep": (lambda x: analysis.crossing_sweep(x, 0.2), 0.1),
    "curve_sweep": (analysis.curve_sweep, 0.1),
    "grid": (lambda x: optimize.grid_refine_maximize(0.05, 0.1, grid=x), 51),
}
# Stand-ins for a number n: its text, which float() would parse, and
# values float() refuses.
_NON_NUMBERS = {
    "str": str,
    "bytes": lambda n: str(n).encode(),
    "numpy_str": lambda n: np.str_(n),
    "abc": lambda n: "abc",
    "None": lambda n: None,
    "complex": lambda n: 1j,
    "list": lambda n: [n],
}


@pytest.mark.parametrize("value", list(_NON_NUMBERS))
@pytest.mark.parametrize("call", list(_SCALAR_CALLS))
def test_non_number_refused(call, value):
    call, number = _SCALAR_CALLS[call]
    with pytest.raises(DomainError):
        call(_NON_NUMBERS[value](number))
