"""Seeded input generation for the benchmark workloads.

Every input the program consumes is made here, in the parent process,
and written as JSON into the run's work directory: the program under test
only ever sees the generated files.  The same ``(workload, seed, scale)``
always gives byte-identical inputs.

The seed jitters parameters around a fixed base instead of redrawing the
instance from scratch.  The work per run then stays the same across
seeds, so run-to-run spread measures the machine and the program, not the
draw: independently drawn criterion-1 sample sets differ by 10x in settle
time per sample, which put a ~15% spread on ``job_s`` across seeds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep", "planner", "dynamics")
SCALES = ("full", "smoke")
DEFAULT_SEED = 0

# One line per workload: why it is in the benchmark.  BENCHMARK.json
# carries the same sentences.
WHY = {
    "sweep": (
        "equilibrium path at scale: ~1500 ladder root solves over 5000 degrees "
        "and the per-degree verify loop; planner and RK4 never run"
    ),
    "planner": (
        "planner tabulation plus ~1500 scalar solves per cost at d_max=100: "
        "small n, many calls, the per-call-overhead side of dbmf"
    ),
    "dynamics": (
        "RK4 settle of 50 criterion-1 states plus a dense solve-dynamics "
        "trajectory bound by the CSV write; root solvers nearly idle"
    ),
}

WEIGHTINGS = [
    {"kind": "identity"},
    {"kind": "prelec", "alpha": 0.75},
    {"kind": "prelec", "alpha": 0.5},
]

# Base sample set of the dynamics batch: drawn once, the way acceptance
# criterion 1 draws its samples, then jittered per run.
DYNAMICS_BASE_SEED = 2024
DYNAMICS_JITTER = 0.01


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _cost_grid(rng, steps: int) -> dict:
    # The top cost is not jittered: it sets how far the threshold ladder
    # climbs, and K ~ delta/(1-c)^2 there under prelec 0.5, so moving it by
    # 0.005 changed the sweep's work by up to 20%.
    return {"start": 0.05 + float(rng.uniform(0.0, 0.005)), "stop": 0.95, "steps": steps}


def _jittered_delta(rng) -> float:
    return 2.0 * (1.0 + float(rng.uniform(-0.01, 0.01)))


def sweep_inputs(seed: int, scale: str) -> dict:
    rng = _rng("sweep", seed)
    full = scale == "full"
    scenario = {
        "distribution": {"type": "powerlaw", "d_min": 2, "d_max": 5000 if full else 200, "beta": 3.0},
        "delta": _jittered_delta(rng),
        "weightings": WEIGHTINGS,
        "cost": _cost_grid(rng, 91 if full else 5),
        "bounds": {"alpha": 0.5},
    }
    return {"sweep.json": scenario}


def planner_inputs(seed: int, scale: str) -> dict:
    rng = _rng("planner", seed)
    full = scale == "full"
    scenario = {
        "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 100 if full else 20, "beta": 3.0},
        "delta": _jittered_delta(rng),
        "weightings": WEIGHTINGS,
        "cost": _cost_grid(rng, 19 if full else 3),
    }
    return {"planner.json": scenario}


def _random_distribution(rng, max_degrees=6, degree_pool=30):
    n = int(rng.integers(2, max_degrees + 1))
    degrees = np.sort(rng.choice(np.arange(1, degree_pool + 1), size=n, replace=False))
    mass = rng.uniform(0.15, 1.0, size=n)
    return degrees, mass / mass.sum()


def _reproduction(degrees, mass, delta, unprotected) -> float:
    d = degrees.astype(np.float64)
    return float(np.sum(d * d * unprotected) / (delta * np.sum(d * mass)))


def _base_samples(n_endemic: int, n_decay: int) -> list:
    """Criterion-1 protocol: endemic states with R >= 1.1, decaying ones with R <= 0.9."""
    rng = np.random.default_rng(DYNAMICS_BASE_SEED)
    samples = []
    for kind, count in (("endemic", n_endemic), ("decay", n_decay)):
        lo_x, hi_delta = (0.2, 0.9) if kind == "endemic" else (0.1, 0.95)
        found = 0
        while found < count:
            degrees, mass = _random_distribution(rng)
            ratio = float(np.sum(degrees**2 * mass) / np.sum(degrees * mass))
            delta = float(rng.uniform(0.2, hi_delta) * ratio)
            x = rng.uniform(lo_x, 1.0, degrees.size) * mass
            r = _reproduction(degrees, mass, delta, x)
            if (kind == "endemic" and r < 1.1) or (kind == "decay" and r > 0.9):
                continue
            p0 = 0.5 if kind == "endemic" else float(rng.uniform(0.2, 0.95))
            samples.append((kind, degrees, mass, delta, x, p0))
            found += 1
    return samples


def dynamics_inputs(seed: int, scale: str) -> dict:
    rng = _rng("dynamics", seed)
    full = scale == "full"
    batch = []
    for kind, degrees, mass, delta, x, p0 in _base_samples(40 if full else 2, 10 if full else 1):
        # redraw the jitter until the sample keeps its side of R = 1
        j = DYNAMICS_JITTER
        while True:
            d2 = delta * (1.0 + float(rng.uniform(-j, j)))
            x2 = np.minimum(x * (1.0 + rng.uniform(-j, j, x.size)), mass)
            r = _reproduction(degrees, mass, d2, x2)
            if (kind == "endemic" and r >= 1.1) or (kind == "decay" and r <= 0.9):
                break
        batch.append(
            {
                "kind": kind,
                "degrees": [int(k) for k in degrees],
                "mass": [float(m) for m in mass],
                "delta": d2,
                "unprotected": [float(v) for v in x2],
                "p0": p0 + float(rng.uniform(-j, j)),
            }
        )
    scenario = {
        "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 100 if full else 20, "beta": 3.0},
        "delta": 2.0,
        "dynamics": {
            "p0": 0.5 + float(rng.uniform(-0.1, 0.1)),
            "t_end": 30.0 if full else 1.0,
            "sample_stride": 1,
            "state": {"threshold": 20 if full else 10},
        },
    }
    return {"dynamics.json": scenario, "batch.json": batch}


GENERATORS = {"sweep": sweep_inputs, "planner": planner_inputs, "dynamics": dynamics_inputs}


def write_inputs(workload: str, seed: int, scale: str, directory: Path) -> dict:
    """Write the workload's input files into ``directory``; return name -> path."""
    files = GENERATORS[workload](seed, scale)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, obj in files.items():
        path = directory / name
        path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths
