"""Whole-domain properties of the (p, q) domain and of the size bounds.

Every check holds on the lattice ``p = linspace(0, 0.99, 10)`` and, for
each p, ``q = linspace(p/2, 1/2, 10)``, both q endpoints included.
Noise raises the threshold over the whole crossing domain, and sizes
above the memory bounds are refused before anything is allocated.
"""

import tracemalloc

import numpy as np
import pytest

from sixstate import analysis, attack, cli, info, optimize
from sixstate.exceptions import DomainError


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", np.linspace(0.0, 0.99, 10).tolist())
def test_all_checks_hold(p, capsys):
    for q in np.linspace(p / 2.0, 0.5, 10).tolist():
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


@pytest.mark.parametrize(
    "call",
    [
        lambda: optimize.grid_refine_maximize(0.05, 0.1, grid=2002),
        lambda: analysis.curve_sweep(0.05, steps=100_001),
        lambda: analysis.crossing_sweep(0.0, 0.5, steps=10_001),
    ],
    ids=["grid", "curve_steps", "crossing_steps"],
)
def test_size_bound_refused_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000
