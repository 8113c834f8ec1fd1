"""Analytic threshold bounds on power-law networks.

Integral bounds bracket the infection odds of the threshold degree in
full-threshold states, cap the equilibrium threshold as a function of the
vaccination cost, and sandwich the growth of the threshold as the cost
approaches one, where the ratio of distorted to true thresholds tracks
(1-c)/(1-w^{-1}(c)).
"""

import numpy as np

from vaxgame import (
    GameSpec,
    PowerLawBoundContext,
    endemic_odds,
    identity,
    odds_lower_bound,
    odds_upper_bound,
    power_law,
    ratio_sandwich,
    solve_pne,
    threshold_upper_bound,
)


def main():
    dist = power_law(2, 100, 3.0)
    ctx = PowerLawBoundContext.create(dist, 2.0)
    print(f"{dist}: B1 = exp(delta <d>/kappa) = {ctx.b1:.4f}\n")

    print("two-sided bounds on the threshold-degree infection odds:")
    print(f"{'t':>4} {'lower':>9} {'odds':>9} {'upper':>9}")
    for t in (20, 40, 60, 80, 100):
        lo, odds, hi = odds_lower_bound(ctx, t), endemic_odds(ctx, t), odds_upper_bound(ctx, t)
        assert lo <= odds <= hi
        print(f"{t:>4} {lo:9.5f} {odds:9.5f} {hi:9.5f}")

    print("\nequilibrium threshold under its cost-dependent cap:")
    print(f"{'c':>5} {'threshold':>10} {'cap':>8}")
    for c in np.linspace(0.1, 0.9, 9):
        # the context's epidemic and ladder, whose rungs the odds above read
        res = solve_pne(GameSpec(ctx.params, identity(), float(c)), ladder=ctx.ladder)
        cap = threshold_upper_bound(ctx, identity(), float(c))
        assert res.state.threshold <= cap
        print(f"{c:5.2f} {res.state.threshold:>10} {cap:8.1f}")

    print("\nthreshold sandwich as the cost approaches one (D = 500):")
    ctx5 = PowerLawBoundContext.create(power_law(2, 500, 3.0), 2.0)
    report = ratio_sandwich(ctx5, 0.75, [0.8, 0.9, 0.95])
    for p in report.points:
        print(
            f"  c={p.cost:.2f}: true {p.d_true} in [{p.true_lo:.1f}, {p.true_hi:.1f}], "
            f"distorted {p.d_weighted} in [{p.weighted_lo:.1f}, {p.weighted_hi:.1f}], "
            f"ratio {p.ratio:.3f} ~ {p.theta_proxy:.3f}"
        )


if __name__ == "__main__":
    main()
