"""README's seed-7 byte table against the runs it describes, and the
checker CI runs over the shipped scenarios' ledgers
(``tests/golden/readme_bytes.py``)."""

import csv
import importlib.util
import os

import pytest

from meshslam.config import load_scenario
from meshslam.net_sim import CATEGORIES
from meshslam.simulation import Simulation

HERE = os.path.dirname(__file__)
SCENARIO_DIR = os.path.join(HERE, os.pardir, "scenarios")
SCENARIOS = sorted(f[:-len(".yaml")] for f in os.listdir(SCENARIO_DIR) if f.endswith(".yaml"))

_spec = importlib.util.spec_from_file_location(
    "readme_bytes", os.path.join(HERE, "golden", "readme_bytes.py"))
readme_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(readme_bytes)


@pytest.fixture(scope="module")
def seed7_ledgers(tmp_path_factory):
    """{scenario: ledger.csv path} of each shipped scenario run at seed 7, in
    a directory named after the scenario, as the CLI writes them."""
    root = tmp_path_factory.mktemp("sim7")
    paths = {}
    for s in SCENARIOS:
        res = Simulation(load_scenario(os.path.join(SCENARIO_DIR, f"{s}.yaml")), seed=7).run()
        (root / s).mkdir()
        path = root / s / "ledger.csv"
        path.write_text(res.net.ledger.to_csv(res.duration))
        paths[s] = str(path)
    return paths


def test_table_has_a_row_per_shipped_scenario_and_a_column_per_category():
    columns, table = readme_bytes.readme_table(readme_bytes.README)
    assert columns == [*CATEGORIES, "total"]
    assert sorted(table) == SCENARIOS


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_seed_7_run_matches_its_readme_row(seed7_ledgers, scenario):
    columns, table = readme_bytes.readme_table(readme_bytes.README)
    assert readme_bytes.sent_kb(seed7_ledgers[scenario], columns) == table[scenario]


def test_seed_7_ledgers_pass(seed7_ledgers, capsys):
    assert readme_bytes.main(list(seed7_ledgers.values())) == 0
    assert capsys.readouterr().out == "README's byte table matches 4 ledgers\n"


def test_a_moved_cell_is_named(seed7_ledgers, tmp_path, capsys):
    with open(seed7_ledgers["coop_loops"], newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        if row["category"] == "Control":
            row["bytes_sent"] = str(int(row["bytes_sent"]) + 400)
    moved = tmp_path / "coop_loops" / "ledger.csv"
    moved.parent.mkdir()
    with open(moved, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    paths = [p for s, p in seed7_ledgers.items() if s != "coop_loops"] + [str(moved)]
    assert readme_bytes.main(paths) == 1
    columns, table = readme_bytes.readme_table(readme_bytes.README)
    said = dict(zip(columns, table["coop_loops"]))
    got = dict(zip(columns, readme_bytes.sent_kb(str(moved), columns)))
    assert said["Control"] != got["Control"]
    err = capsys.readouterr().err
    assert (f"coop_loops Control: README says {said['Control']}, "
            f"the ledger gives {got['Control']}") in err
    assert "Key Frames" not in err


def test_missing_and_unknown_scenarios_are_named(seed7_ledgers, tmp_path, capsys):
    extra = tmp_path / "swarm" / "ledger.csv"
    extra.parent.mkdir()
    with open(seed7_ledgers["coop_loops"]) as f:
        extra.write_text(f.read())
    paths = [p for s, p in seed7_ledgers.items() if s != "fig3_replay"] + [str(extra)]
    assert readme_bytes.main(paths) == 1
    err = capsys.readouterr().err
    assert "README has no row for swarm" in err
    assert "no ledger for README's row fig3_replay" in err
