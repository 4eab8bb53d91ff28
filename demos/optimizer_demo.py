#!/usr/bin/env python3
"""Put the closed-form optimum on trial against brute force.

The claimed maximum of Eve's information has an analytic form.  This
script re-derives it numerically three independent ways: a search
with window refinement along the boundary arcs of the constrained
family (the information is convex, so its maximum lies there), a
scan of the aligned-phase boundary confirming the two symmetric
maximizers, and the first-order stationarity system solved in least
squares.
"""

from sixstate import attack, info, optimize

POINTS = [(0.0, 0.10), (0.05, 0.10), (0.1, 0.25), (0.2, 0.35)]

print("Closed form vs grid search")
print("=" * 72)
print(f"{'p':>5} {'q':>5} {'closed form':>13} {'grid search':>13} "
      f"{'|diff|':>9} {'beta^2 err':>10}")
for p, q in POINTS:
    closed = info.i_ae_optimal(p, q)
    res = optimize.grid_refine_maximize(p, q, grid=201, refine_iters=6)
    beta_err = abs(res.best_params.beta_a_sq - info.beta_sq_optimal(p, q, "plus"))
    print(f"{p:5.2f} {q:5.2f} {closed:13.9f} {res.best_value:13.9f} "
          f"{abs(closed - res.best_value):9.1e} {beta_err:10.1e}")

print()
print("Two symmetric maximizers on the aligned-phase boundary")
print("-" * 72)
for p, q in POINTS:
    plus = info.beta_sq_optimal(p, q, "plus")
    minus = info.beta_sq_optimal(p, q, "minus")
    paired = optimize.verify_root_pair(p, q)
    print(f"p={p:.2f} q={q:.2f}: roots {minus:.6f} / {plus:.6f} "
          f"(sum {plus + minus:.3f}), exactly-two-maxima check: {paired}")
print("Swapping both beta weights with both gamma weights leaves Eve's")
print("information unchanged, which is why the roots come in mirror pairs.")

print()
print("Stationarity residual (least-squares multiplier fit)")
print("-" * 72)
p, q = 0.05, 0.15
at_opt = optimize.lagrange_residual(attack.optimal_parameters(p, q))
print(f"at the optimum:        residual = {at_opt.residual_norm:.2e}")
ba = info.beta_sq_optimal(p, q, "plus") - 0.05
bc = info.beta_sq_optimal(p, q, "minus")
cos = optimize.feasible_phase(ba, bc, p, q)
moved = optimize.lagrange_residual(attack.parameters_from_squares(p, q, ba, bc, cos))
print(f"weight shifted by 0.05: residual = {moved.residual_norm:.2e}")
anti = optimize.lagrange_residual(attack.antiphase_parameters(p, q))
print(f"opposed-phase point:   residual = {anti.residual_norm:.2e}")
print("Both stationary families zero out the residual; any other feasible")
print("point leaves it large, so the analytic optimum is a true critical point.")
