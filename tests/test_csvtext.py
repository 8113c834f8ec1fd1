"""The exact CSV kernel against ``'%.17g'``, value by value and through the CLI."""

import json
import math
from decimal import ROUND_FLOOR, ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vaxgame.cli import load_scenario, main
from vaxgame.csvtext import csv_rows
from vaxgame.dbmf import integrate_dbmf
from vaxgame.game import CandidateState

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def reference(rows) -> str:
    """The "%.17g" text of every value, from one %-format over the whole table."""
    rows = np.asarray(rows)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return line * rows.shape[0] % tuple(rows.ravel().tolist())


def assert_exact(values, cols=7):
    """Format ``values`` in rows of ``cols`` (the last row padded with 0.5) and compare."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rows = np.full(-(-values.size // cols) * cols, 0.5)
    rows[: values.size] = values
    rows = rows.reshape(-1, cols)
    assert csv_rows(rows) == reference(rows)


def neighbours(x, steps=3):
    """``x`` and the ``steps`` doubles on each side of it."""
    out = [x]
    below = above = x
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


def exponent(x) -> int:
    return Decimal(x).adjusted()


class TestAgainstPercentFormat:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 20), st.integers(1, 12)),
            elements=st.one_of(st.floats(), st.floats(1e-4, 1.0, exclude_max=True)),
        )
    )
    def test_any_doubles(self, rows):
        # the first strategy draws subnormals, signed zeros, infinities and NaN
        # for the "%.17g" fallback, the second the fast range [1e-4, 1)
        assert csv_rows(rows) == reference(rows)

    def test_neighbours_of_powers_of_ten(self):
        values = []
        for k in range(-7, 18):
            values += neighbours(float(f"1e{k}"))
        values += neighbours(1e-4, 8) + neighbours(1e16, 8)
        assert_exact(values)

    def test_rounding_that_carries_through_nines(self):
        # the 17 truncated digits end in 99 and round up, so the carry runs
        # through two digits or more; the largest doubles below a power of ten
        # come closest to a carry into an 18th digit
        rng = np.random.default_rng(18)
        found = []
        for x in (10.0 ** rng.uniform(-4, 0, 20_000)).tolist():
            scaled = Decimal(x).scaleb(16 - exponent(x))
            truncated = int(scaled.to_integral_value(rounding=ROUND_FLOOR))
            if truncated % 100 == 99 and int(scaled.to_integral_value(rounding=ROUND_HALF_EVEN)) > truncated:
                found.append(x)
        assert len(found) >= 20
        found += [np.nextafter(float(f"1e{k}"), 0) for k in range(-3, 17)]
        assert_exact(found)

    def test_no_digits_round_into_the_next_decade(self):
        # the kernel counts zeros by comparing with the doubles 1e-3, 1e-2 and
        # 1e-1, and mends no carry: each of those and 1e-4 lies above its power
        # of ten with no double between, and the largest double below each
        # power of ten from 1e-3 to 1 lies more than half a unit of the 17th
        # digit below it
        for k in range(1, 5):
            x = float(f"1e-{k}")
            assert Fraction(np.nextafter(x, 0)) < Fraction(1, 10**k) < Fraction(x)
        for k in range(4):
            below = Fraction(np.nextafter(float(f"1e-{k}"), 0))
            assert Fraction(1, 10**k) - below > Fraction(1, 2 * 10 ** (17 + k))

    def test_exact_ties_round_half_to_even(self):
        # x = m / 2**(17 - X), m odd, makes x * 10**(16 - X) = m * 5**(16 - X) / 2
        # a half-integer, a tie for the 17th digit
        ties = []
        for X in range(-4, 16):
            first = -(-2 * 10**16 // 5 ** (16 - X)) | 1
            for m in range(first, first + 8, 2):
                x = math.ldexp(m, X - 17)
                assert (Fraction(x) * 10 ** (16 - X)).denominator == 2 and exponent(x) == X
                ties.append(x)
        assert_exact(ties)

    def test_trailing_zeros(self):
        assert_exact([0.5, 20.0, 30.0, 1.0, 0.25, 12.5, 100.0, 1e15, 0.001, 1234.5, 3.2, 0.0001])
        assert csv_rows(np.array([[0.5, 20.0, 30.0]])) == "0.5,20,30\n"

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        values = 10.0 ** rng.uniform(-8, 18, 10**6)
        for start in range(0, values.size, 50_000):
            rows = values[start : start + 50_000].reshape(-1, 500)
            assert csv_rows(rows) == reference(rows)


class TestTrajectoryOracle:
    """``solve dynamics`` CSV equals "%.17g" over the table ``integrate_dbmf`` returns."""

    def run(self, tmp_path, obj):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(obj), encoding="utf-8")
        out = tmp_path / "traj.csv"
        assert main(["solve", "dynamics", "--scenario", str(scenario), "--out", str(out)]) == 0
        sc = load_scenario(str(scenario))
        opts = sc.options["dynamics"]
        dist = sc.distribution
        threshold = opts.get("state", {}).get("threshold")
        state = CandidateState.all_unprotected(dist) if threshold is None else CandidateState(dist, threshold)
        table = integrate_dbmf(sc.params, state, opts.get("p0", 0.5), float(opts["t_end"])).table
        header = ",".join(["t"] + [f"p_{int(d)}" for d in dist.degrees]) + "\n"
        assert out.read_text(encoding="utf-8") == header + reference(table)
        return table

    def test_bench_job_shape(self, tmp_path):
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 100, "beta": 3.0},
            "delta": 2.0,
            "dynamics": {"t_end": 3.0, "state": {"threshold": 20}},
        }
        assert len(self.run(tmp_path, obj)) == 601

    def test_bounds_d500_degrees(self, tmp_path):
        obj = json.loads((SCENARIOS / "bounds_d500.json").read_text(encoding="utf-8"))
        obj = {"distribution": obj["distribution"], "delta": obj["delta"], "dynamics": {"t_end": 0.2}}
        assert len(self.run(tmp_path, obj)) > 64

    def test_p0_list_takes_the_fallback(self, tmp_path):
        p0 = [0.0, 1.0, 1e-5] * 3 + [0.5, 0.25]
        obj = {
            "distribution": {"type": "powerlaw", "d_min": 1, "d_max": 11, "beta": 3.0},
            "delta": 2.0,
            "dynamics": {"p0": p0, "t_end": 2.0},
        }
        table = self.run(tmp_path, obj)
        # "%.17g" fallbacks: 0, values below 1e-4 and times from one up
        assert (table == 0.0).any() and ((table > 0) & (table < 1e-4)).any()
        assert (table >= 1.0).sum() > len(table) // 2
