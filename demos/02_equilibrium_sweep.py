"""Equilibrium vaccination under true and distorted risk perception.

Sweeps the vaccination cost and compares the unique threshold equilibria
of true expectation minimizers against players who overweight small and
underweight large infection probabilities (Prelec perception).  Below the
perception fixed point 1/e the distortion recruits extra vaccination;
above it, vaccination collapses and the equilibrium threshold explodes.
"""

import math

import numpy as np

from vaxgame import (
    EpidemicParams,
    GameSpec,
    ThresholdLadder,
    identity,
    power_law,
    prelec,
    solve_pne,
    verify_pne,
)


def main():
    dist = power_law(1, 100, 3.0)
    params = EpidemicParams(2.0, dist)
    ladder = ThresholdLadder(params)
    weightings = [("true", identity()), ("a=0.75", prelec(0.75)), ("a=0.5", prelec(0.5))]

    print("threshold / expected infected / social cost per weighting")
    print(f"{'c':>5} | " + " | ".join(f"{name:^26}" for name, _ in weightings))
    for c in np.linspace(0.05, 0.95, 19):
        cells = []
        for _, w in weightings:
            spec = GameSpec(params, w, float(c))
            res = solve_pne(spec, ladder=ladder)
            assert verify_pne(spec, res.state).passed
            cells.append(f"{res.state.threshold:>3} {res.expected_infected:.4f} {res.social_cost:.4f}")
        print(f"{c:5.2f} | " + " | ".join(f"{cell:^26}" for cell in cells))

    print("\nat c = 1/e the perception fixed point makes all games identical:")
    c = math.exp(-1.0)
    for name, w in weightings:
        res = solve_pne(GameSpec(params, w, c), ladder=ladder)
        print(f"  {name:>7}: threshold {res.state.threshold}, infected {res.expected_infected:.8f}")


if __name__ == "__main__":
    main()
