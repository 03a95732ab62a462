"""Every ``irsim reproduce`` figure, rerun in process at the default config,
against its committed reference rows (the rule is in ``reference_rows.py``)."""

import pytest

from irsim.experiments import FIGURES

from reference_rows import COLUMNS, REFERENCE_DIR, mismatches, rerun

HEADER = ",".join(COLUMNS)


def test_every_figure_has_a_reference_file():
    assert sorted(p.stem for p in REFERENCE_DIR.glob("*.csv")) == sorted(FIGURES)


@pytest.mark.parametrize("figure", list(FIGURES))
def test_reproduce_matches_its_reference_rows(figure, tmp_path):
    out = tmp_path / f"{figure}.csv"
    rerun(figure, out)
    assert mismatches(figure, (REFERENCE_DIR / f"{figure}.csv").read_text(), out.read_text()) == []


def test_reference_rule():
    # the column maximum 4e-8 puts the floor of lrs_power_or_energy at 4e-20
    ref = f"{HEADER}\n-1,proposed,8.73073465421e-71,0,true,0\n0,proposed,4e-08,0,true,2\n"

    def rule(row):
        return mismatches("figX", ref, f"{HEADER},wall_time\n-1,proposed,8.73073465421e-71,0,true,0,0.5\n{row}\n")

    assert rule("0,proposed,4e-08,0,true,2,0.1") == []  # wall_time is not compared
    assert rule("0,proposed,4.00000000000e-08,0,true,2,0.1") == []  # as 12-digit strings
    assert rule("0,proposed,4.00000000001e-08,0,true,2,0.1") != []
    assert rule("0,proposed,4e-08,0,false,2,0.1") != []
    assert rule("0,proposed,4e-08,0,true,3,0.1") != []
    assert rule("0,lrs_only,4e-08,0,true,2,0.1") != []
    # swept_value 0 is under its column's floor of 1e-12: so is 1e-30, but not 1e-12
    assert rule("1e-30,proposed,4e-08,0,true,2,0.1") == []
    assert rule("1e-12,proposed,4e-08,0,true,2,0.1") != []
    # a null cell compares only as under the floor
    noise = f"{HEADER},wall_time\n-1,proposed,3.1e-66,0,true,0,0.5\n0,proposed,4e-08,0,true,2,0.1\n"
    assert mismatches("figX", ref, noise) == []
    risen = f"{HEADER},wall_time\n-1,proposed,4e-20,0,true,0,0.5\n0,proposed,4e-08,0,true,2,0.1\n"
    assert mismatches("figX", ref, risen) != []
    assert mismatches("figX", ref, f"{HEADER}\n-1,proposed,8.73073465421e-71,0,true,0\n") != []  # a row less
