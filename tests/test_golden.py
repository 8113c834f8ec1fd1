"""CLI artifacts against golden files.

``golden/*.csv`` were captured before the endemic root kernel changed from
bisection to Newton.  Integer and label columns must match exactly.
Floats may move by the root solver's own error, so they agree within
REL 1e-9 / ABS 1e-12, the tolerance the bench reference check uses.

``golden/exact/`` are compared whole, byte for byte.  They were captured
before the certificate and the CSV writer were vectorized, and
``bounds_d500_bounds.csv`` before the root kernel was cut to the degrees
with unprotected mass; neither change may move a byte there.
``powerlaw_d100_pne.csv`` was recaptured after that cut, which regroups
the kernel's sums: ``v``, ``expected_infected`` and ``social_cost`` moved
by at most 1.7e-15 relative, ``threshold`` and ``fraction`` not at all.
``powerlaw_d100_opt.csv`` and ``single_degree_opt.csv`` were captured
before threshold states got one constructor, which canonicalizes a zero
fraction inside :class:`CandidateState` in place of the planner's own
code; that change may not move a byte of ``opt`` either.  Both were
recaptured when ``solve opt`` began to write the certified equilibrium's
own social cost, the ``social_cost`` ``solve pne`` writes, in place of
a re-solve of its state.  ``pne_social_cost`` moved by at most 8.5e-13
relative (2.3e-15 absolute) and ``gap`` by at most 8.0e-12 relative, in
30 of 57 ``powerlaw_d100`` rows and in the one ``single_degree`` row; no
``opt_*`` column moved.
``dynamics_dense_dynamics.csv`` (141 rows, more than two of the writer's
64-row blocks) was captured before the trajectory went to the CSV as
arrays, formatted a block at a time; no block may move a byte.
``dynamics_dense_dynamics.json`` (the same 141 rows, 64 + 64 + 13) was
captured before the JSON writer streamed the table in those blocks, where
``dynamics_d100_dynamics.json`` (61 rows) fills less than one.
"""

import csv
import math
from pathlib import Path

import pytest

from vaxgame.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = sorted((ROOT / "tests" / "golden").glob("*.csv"))
EXACT = sorted((ROOT / "tests" / "golden" / "exact").iterdir())
EXACT_COLUMNS = {"threshold", "opt_threshold", "d_t", "d_w", "uninformative", "alpha"}
REL_TOL, ABS_TOL = 1e-9, 1e-12


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_golden_set_complete():
    # pne and opt on three scenarios, bounds where it applies (bounds_d500)
    assert len(GOLDEN) == 7


@pytest.mark.parametrize("golden", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_cli_matches_golden(golden, tmp_path):
    scenario, command = golden.stem.rsplit("_", 1)
    out = tmp_path / golden.name
    rc = main(["solve", command, "--scenario", str(ROOT / "scenarios" / f"{scenario}.json"), "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    want_header, want_rows = read_csv(golden)
    assert header == want_header and len(rows) == len(want_rows)
    for row, want in zip(rows, want_rows):
        for column, got, expected in zip(header, row, want):
            if column in EXACT_COLUMNS:
                assert got == expected, (column, row)
            else:
                assert math.isclose(float(got), float(expected), rel_tol=REL_TOL, abs_tol=ABS_TOL), (
                    column,
                    got,
                    expected,
                )


def test_exact_set_complete():
    assert [p.name for p in EXACT] == [
        "bounds_d500_bounds.csv",
        "dynamics_d100_dynamics.csv",
        "dynamics_d100_dynamics.json",
        "dynamics_dense_dynamics.csv",
        "dynamics_dense_dynamics.json",
        "powerlaw_d100_opt.csv",
        "powerlaw_d100_pne.csv",
        "single_degree_opt.csv",
    ]


@pytest.mark.parametrize("golden", EXACT, ids=[p.name for p in EXACT])
def test_cli_bytes_match_golden(golden, tmp_path):
    scenario, command = golden.stem.rsplit("_", 1)
    out = tmp_path / golden.name
    scenario_path = str(ROOT / "scenarios" / f"{scenario}.json")
    fmt = golden.suffix[1:]
    rc = main(["solve", command, "--scenario", scenario_path, "--out", str(out), "--format", fmt])
    assert rc == 0
    assert out.read_bytes() == golden.read_bytes()
