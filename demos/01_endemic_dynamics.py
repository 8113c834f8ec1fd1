"""Mean-field SIS basics on a scale-free network.

Builds a truncated power-law network, shows how the reproduction quantity
decides epidemic persistence, solves the endemic fixed point, confirms it
against the integrated dynamics, and cross-checks the reproduction
quantity with the spectral radius of the degree-class reduction.
"""

import numpy as np

from vaxgame import (
    CandidateState,
    EpidemicParams,
    endemic_state,
    integrate_dbmf,
    nimfa_reduction,
    power_law,
    reproduction,
    settle_dbmf,
)


def main():
    dist = power_law(1, 100, 3.0)
    params = EpidemicParams(2.0, dist)
    print(f"network: {dist}")
    print(f"<d> = {dist.mean_degree:.6f}, <d^2> = {dist.second_moment:.6f}")
    print(f"persistence limit <d^2>/<d> = {dist.second_moment / dist.mean_degree:.4f}, delta = {params.delta}")

    # nobody vaccinates: the epidemic persists
    everyone = CandidateState.all_unprotected(dist)
    r = reproduction(params, everyone)
    es = endemic_state(params, everyone)
    print(f"\nall unprotected: R = {r:.4f} -> endemic, v = {es.v:.6f}")
    for d in (1, 5, 20, 100):
        print(f"  degree {d:>3}: steady infection probability {es.p[dist.index_of(d)]:.4f}")

    # vaccinate everyone above degree 10: the epidemic dies out
    trimmed = CandidateState(dist, 10)
    print(f"\nvaccinating degrees > 10: R = {reproduction(params, trimmed):.4f} -> disease-free")

    # the dynamics settle on the same endemic state from a generic start
    settled = settle_dbmf(params, everyone, p0=0.5)
    v_ode = float(np.dot(everyone.neighbor_weights(), settled))
    print(f"\nintegrated dynamics settle at v = {v_ode:.10f} (fixed point {es.v:.10f})")

    traj = integrate_dbmf(params, everyone, 0.5, t_end=10.0, sample_stride=200)
    print("trajectory of the degree-100 class:")
    for t, row in zip(traj.times[::2], traj.probabilities[::2]):
        print(f"  t = {t:5.1f}: p_100 = {row[-1]:.6f}")

    # rank-one degree-class reduction reproduces R exactly
    red = nimfa_reduction(params, everyone)
    print(f"\nreduction spectral radius = {red.spectral_radius:.12f}, R = {red.reproduction:.12f}")


if __name__ == "__main__":
    main()
