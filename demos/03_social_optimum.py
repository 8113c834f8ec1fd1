"""Centralized vaccination policy versus decentralized equilibrium.

A planner minimizing expected infections plus vaccination spending picks
the cheapest state that just eradicates the epidemic: unprotect low
degrees up to the persistence boundary and vaccinate the tail.  The
equilibrium instead free-rides far past that point, and the demo reports
the social-cost gap together with its mean-degree bound.
"""

import numpy as np

from vaxgame import (
    EpidemicParams,
    GameSpec,
    SocialOptimumSolver,
    ThresholdLadder,
    identity,
    power_law,
    social_cost,
    solve_pne,
)


def main():
    dist = power_law(1, 100, 3.0)
    params = EpidemicParams(2.0, dist)
    ladder = ThresholdLadder(params)
    solver = SocialOptimumSolver(params, ladder=ladder)
    bound = dist.mean_degree / params.delta
    print(f"inefficiency bound <d>/delta = {bound:.4f}\n")

    print(f"{'c':>5} {'opt state':>24} {'psi_opt':>10} {'psi_pne':>10} {'gap':>10}")
    for c in np.linspace(0.1, 0.9, 9):
        opt_state, opt_cost = solver.solve(float(c))
        pne = solve_pne(GameSpec(params, identity(), float(c)), ladder=ladder)
        pne_cost = social_cost(params, float(c), pne.state)
        gap = pne_cost.total - opt_cost.total
        label = f"t={opt_state.threshold} f={opt_state.fraction:.3g}"
        print(f"{c:5.2f} {label:>24} {opt_cost.total:10.6f} {pne_cost.total:10.6f} {gap:10.6f}")
        assert 0.0 <= gap + 1e-9 and gap <= bound

    c = 0.5
    opt_state, opt_cost = solver.solve(c)
    m_t = dist.mass_of(opt_state.threshold)
    print(
        f"\nat c = {c}: the planner leaves degrees below {opt_state.threshold} unprotected, "
        f"vaccinates {100 * (1 - opt_state.fraction / m_t):.0f}% of degree {opt_state.threshold} "
        f"and everyone above;"
    )
    print(
        f"expected infections {opt_cost.infected_term:.2e} versus vaccination spending "
        f"{opt_cost.vaccination_term:.2e} (eradication at minimum coverage)."
    )


if __name__ == "__main__":
    main()
