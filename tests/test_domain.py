"""Whole-domain sweep: every check holds on a lattice over the (p, q) domain.

The lattice is ``p = linspace(0, 0.99, 10)`` and, for each p,
``q = linspace(p/2, 1/2, 10)``, both q endpoints included.
"""

import numpy as np
import pytest

from sixstate import attack, cli, info, optimize


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
