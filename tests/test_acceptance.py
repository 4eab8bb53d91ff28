"""End-to-end acceptance checks.

Each test covers one headline requirement, prints a single PASS/FAIL
line (visible with ``pytest -s`` or on failure), and enforces a
runtime budget.  Run the whole file with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from sixstate import analysis, attack, cli, info, optimize, protocol

# 25-point (noise, error-rate) grid: five noise weights, five interior
# fractions of the admissible error-rate interval each
GRID25 = [
    (p, p / 2 + t * (0.5 - p / 2))
    for p in (0.0, 0.05, 0.1, 0.2, 0.3)
    for t in (0.15, 0.3, 0.5, 0.7, 0.85)
]


def _report(num, label, ok, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"{status} acceptance {num}: {label} [{elapsed:.2f}s, budget {budget:g}s]")
    assert ok
    assert elapsed < budget


def test_acceptance_1_noiseless_crossing_threshold(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "crossing.csv"
    code = cli.main(
        ["crossing", "--p-min", "0", "--p-max", "0", "--steps", "1", "--out", str(out)]
    )
    q_cross = float(out.read_text().strip().split("\n")[1].split(",")[1])
    elapsed = time.perf_counter() - start
    ok = code == 0 and abs(q_cross - 0.15637) <= 5e-4
    _report(1, f"noiseless crossing q_cross={q_cross:.6f} vs 0.15637 +/- 5e-4",
            ok, elapsed, 1.0)


def test_acceptance_2_threshold_above_baseline_line():
    start = time.perf_counter()
    ps = [round(0.01 * k, 2) for k in range(1, 21)]
    margins = [analysis.crossing_point(p).margin for p in ps]
    elapsed = time.perf_counter() - start
    ok = all(m > 0.0 for m in margins)
    _report(2, f"margin above line for p in 0.01..0.20, min={min(margins):.2e}",
            ok, elapsed, 5.0)


def test_acceptance_3_closed_form_vs_brute_force():
    start = time.perf_counter()
    worst_val = 0.0
    worst_beta = 0.0
    for p, q in GRID25:
        res = optimize.grid_refine_maximize(p, q, grid=201, refine_iters=6)
        worst_val = max(worst_val, abs(res.best_value - info.i_ae_optimal(p, q)))
        worst_beta = max(
            worst_beta,
            abs(res.best_params.beta_a_sq - info.beta_sq_optimal(p, q, "plus")),
        )
    elapsed = time.perf_counter() - start
    ok = worst_val <= 1e-6 and worst_beta <= 1e-4
    _report(3, f"grid search max |dI|={worst_val:.2e} (tol 1e-6), "
               f"|dbeta^2|={worst_beta:.2e} (tol 1e-4)", ok, elapsed, 60.0)


def test_acceptance_4_oracle_equivalence():
    start = time.perf_counter()
    worst_m = 0.0
    worst_q = 0.0
    for p, q in GRID25:
        params = attack.optimal_parameters(p, q)
        iso = attack.build_isometry(
            protocol.d_from_qber(q, p), attack.build_ancillas(params)
        )
        closed = attack.eve_distribution_closed_form(params)
        sim, flips = attack.simulate(iso, p)
        worst_m = max(worst_m, float(np.max(np.abs(closed - sim))))
        for w0, w1 in flips:
            worst_q = max(worst_q, abs(0.5 * (w0 + w1) - q))
    elapsed = time.perf_counter() - start
    ok = worst_m <= 1e-12 and worst_q <= 1e-10
    _report(4, f"simulated vs closed-form outcomes {worst_m:.2e} (tol 1e-12), "
               f"error rate {worst_q:.2e} (tol 1e-10)", ok, elapsed, 10.0)


def test_acceptance_5_branch_dominance_and_symmetry():
    start = time.perf_counter()
    worst_dom = 0.0
    worst_sym = 0.0
    for p in np.linspace(0.0, 0.3, 7):
        for q in np.linspace(p / 2, 0.5, 21):
            opt = info.i_ae_optimal(p, q)
            worst_dom = max(worst_dom, info.i_ae_antiphase(p, q) - opt)
            swap = abs(
                info.i_ae_closed_form(p, q, info.beta_sq_optimal(p, q, "plus"))
                - info.i_ae_closed_form(p, q, info.beta_sq_optimal(p, q, "minus"))
            )
            worst_sym = max(worst_sym, swap)
    elapsed = time.perf_counter() - start
    ok = worst_dom <= 0.0 and worst_sym <= 1e-14
    _report(5, f"dominance slack {worst_dom:.2e} (need <= 0), "
               f"branch swap {worst_sym:.2e} (tol 1e-14)", ok, elapsed, 5.0)


def test_acceptance_6_stationarity_residuals():
    start = time.perf_counter()
    samples = [
        (p, p / 2 + t * (0.5 - p / 2))
        for p in (0.0, 0.05, 0.1, 0.15, 0.2)
        for t in (0.3, 0.6)
    ]
    worst_opt = 0.0
    best_perturbed = math.inf
    for p, q in samples:
        at_opt = optimize.lagrange_residual(attack.optimal_parameters(p, q))
        worst_opt = max(worst_opt, at_opt.residual_norm)
        ba = info.beta_sq_optimal(p, q, "plus") - 0.05
        bc = info.beta_sq_optimal(p, q, "minus")
        cos = optimize.feasible_phase(ba, bc, p, q)
        assert cos is not None
        moved = optimize.lagrange_residual(
            attack.parameters_from_squares(p, q, ba, bc, cos)
        )
        best_perturbed = min(best_perturbed, moved.residual_norm)
    elapsed = time.perf_counter() - start
    ok = worst_opt < 1e-6 and best_perturbed > 1e-3
    _report(6, f"residual at optimum {worst_opt:.2e} (tol 1e-6), "
               f"perturbed {best_perturbed:.2e} (must exceed 1e-3)",
            ok, elapsed, 5.0)


def test_acceptance_7_noiseless_reduction_and_endpoints():
    start = time.perf_counter()

    def h(x):
        return x * math.log2(x) if x > 0.0 else 0.0

    worst = 0.0
    for pt in analysis.curve_sweep(0.0, steps=101):
        q = pt.q
        # independent noiseless-protocol expressions
        beta = 0.5 * (1.0 + math.sqrt(q * (2.0 - 3.0 * q)) / (1.0 - q)) if q < 0.5 else 1.0
        pure_ae = 1.0 + (1.0 - q) * (h(beta) + h(1.0 - beta))
        pure_ab = 1.0 + h(q) + h(1.0 - q)
        worst = max(worst, abs(pt.i_ae_opt - pure_ae), abs(pt.i_ab - pure_ab))
    exact = (
        info.i_ab(0.0) == 1.0
        and info.i_ab(0.5) == 0.0
        and all(info.i_ae_optimal(p, p / 2) == 0.0 for p in (0.0, 0.1, 0.3))
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-14 and exact
    _report(7, f"noiseless reduction max diff {worst:.2e} (tol 1e-14), "
               f"exact endpoints {exact}", ok, elapsed, 1.0)


def test_acceptance_8_information_curves_output(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "fig1.csv"
    code = cli.main(["curves", "--p", "0.05", "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    noisy_below_pure = all(row[2] <= row[5] + 1e-15 for row in rows)
    ab_matches_pure = all(row[1] == row[4] for row in rows)
    elapsed = time.perf_counter() - start
    ok = code == 0 and len(rows) == 200 and noisy_below_pure and ab_matches_pure
    _report(8, "curve data: eavesdropper curve below noiseless one at every "
               "grid point, shared-information column matches noiseless form",
            ok, elapsed, 1.0)
