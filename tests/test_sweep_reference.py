"""The sweep of configs/sweep_small.json against its checked-in output.

This is the guard of every refactor of the cell path, under both dynamics.
Numbers are compared within 1e-12 relative (1e-15 absolute), so that the
last-ulp differences of another numpy build pass; everything else (header,
labels, empty fields, the error column) must match exactly.
"""

import csv
import math
from pathlib import Path

import pytest

import nmotto as nm
from nmotto.cycle import LABEL_FIELDS

REPO = Path(__file__).resolve().parents[1]
TEXT_FIELDS = set(LABEL_FIELDS) | {"error"}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _same_field(name, got, want):
    if name in TEXT_FIELDS or got == want or "" in (got, want):
        return got == want
    return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("dynamics", ["tcl2", "markov"])
def test_sweep_small_matches_the_reference_output(tmp_path, dynamics):
    config = nm.load_config(str(REPO / "configs" / "sweep_small.json"))
    config = nm.parse_config({**config.to_dict(), "dynamics": dynamics, "workers": 1})
    out = tmp_path / "sweep.csv"
    nm.run_sweep(config, str(out))
    want = _rows(REPO / "tests" / "data" / f"sweep_small_{dynamics}.csv")
    got = _rows(out)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row)
        bad = [(name, g, w) for name, g, w in zip(want[0], got_row, want_row)
               if not _same_field(name, g, w)]
        assert not bad, (want_row[:2], bad)
