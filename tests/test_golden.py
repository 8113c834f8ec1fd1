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
Six were recaptured when the root kernel's derivative and the ODE's
``theta = q_hat.p`` left BLAS for numpy's pairwise sum, whose order does
not depend on the CPU, and the ODE's right-hand side was regrouped as
``d*theta - p*(delta + d*theta)``.  In ``powerlaw_d100_pne.csv`` 7 of 399
cells moved (``v``, ``expected_infected``, ``social_cost``), in
``powerlaw_d100_opt.csv`` 4 of 456 (``pne_social_cost``, ``gap``), in
each ``dynamics_d100_dynamics`` file 1,292 of 6,161 and in each
``dynamics_dense_dynamics`` file 153 of 1,551 (``p_*`` only), all by at
most 3.5e-16 relative; no integer, label or time cell moved.
``bounds_d500_bounds.csv`` and ``single_degree_opt.csv`` did not move.
Since then every exact file is also checked under other OpenBLAS kernels
and under numpy's baseline SIMD dispatch, each in a child process.
``bounds_d500_pne.csv`` was captured before each equilibrium's R, infected
mass and unprotected mass became sums over its threshold's prefix.  Its
499 degrees split numpy's pairwise sum, where ``powerlaw_d100``'s 100 are
one leaf; its thresholds (21 to 33) still lie in the first leaf, so
prefixes that cross a split are checked by ``test_dbmf.TestPrefixSum``.
``powerlaw_d274_{pne,opt}.csv`` were captured before the certificate and
the planner's social cost left the n-wide p and w became one scalar
function.  The 273 degrees split numpy's pairwise sum into nodes of 136
and then 64, and the split equilibrium thresholds reach index 81, past
the 64-term node, so these prefixes cross a split: a ``prefix_sum`` that
sums every prefix of at most 128 terms in one leaf moves bytes of both
files.
"""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
        "bounds_d500_pne.csv",
        "dynamics_d100_dynamics.csv",
        "dynamics_d100_dynamics.json",
        "dynamics_dense_dynamics.csv",
        "dynamics_dense_dynamics.json",
        "powerlaw_d100_opt.csv",
        "powerlaw_d100_pne.csv",
        "powerlaw_d274_opt.csv",
        "powerlaw_d274_pne.csv",
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


# Writes every exact golden artifact named in argv[3:] into the directory
# argv[2], from the scenarios under the checkout argv[1]; then prints the
# CPU features numpy still dispatches to.
ALL_EXACT = """
import sys
import numpy as np
from vaxgame.cli import main

root, out = sys.argv[1], sys.argv[2]
for name in sys.argv[3:]:
    scenario, rest = name.rsplit("_", 1)
    command, fmt = rest.split(".")
    scenario_path = f"{root}/scenarios/{scenario}.json"
    if main(["solve", command, "--scenario", scenario_path, "--out", f"{out}/{name}", "--format", fmt]) != 0:
        sys.exit(f"{name}: nonzero exit")
umath = np._core._multiarray_umath if int(np.__version__.split(".")[0]) >= 2 else np.core._multiarray_umath
print(*[f for f in getattr(umath, "__cpu_dispatch__", ()) if umath.__cpu_features__[f]])
"""


def numpy_dispatch_names():
    """The SIMD targets numpy's loops may dispatch to at run time, or None if numpy does not list them."""
    umath = np._core._multiarray_umath if int(np.__version__.split(".")[0]) >= 2 else np.core._multiarray_umath
    return getattr(umath, "__cpu_dispatch__", None)


@pytest.mark.parametrize("leg", ["Haswell", "Zen", "Prescott", "numpy-baseline"])
def test_exact_bytes_on_every_cpu(leg, tmp_path):
    # OpenBLAS picks its kernels per CPU, and OPENBLAS_CORETYPE forces
    # another CPU's; NPY_DISABLE_CPU_FEATURES holds numpy's own loops to
    # the build's baseline.  Both act only on the child they are set for.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if leg == "numpy-baseline":
        names = numpy_dispatch_names()
        if names is None:
            pytest.skip("this numpy lists no dispatched CPU features to disable")
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(names)
    else:
        env["OPENBLAS_CORETYPE"] = leg
    result = subprocess.run(
        [sys.executable, "-c", ALL_EXACT, str(ROOT), str(tmp_path), *[p.name for p in EXACT]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    if leg == "numpy-baseline":
        assert result.stdout.split() == [], "numpy still dispatches to these"
    assert [p.name for p in EXACT if (tmp_path / p.name).read_bytes() != p.read_bytes()] == []
