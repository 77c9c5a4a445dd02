"""Checks README.md's table of bytes sent at seed 7 against the ledgers of
those runs: every cell, per category and in total, must be the ledgers'
bytes sent over all agents in kB (1000 bytes) to one decimal, and the table
must have one row per ledger.  A ledger's scenario is the name of its
directory.  Used by CI after the shipped scenarios have run:

    python tests/golden/readme_bytes.py /tmp/sim/7/*/ledger.csv

Exits 1 and names each cell that differs, so a change that moves the bytes
sent also updates the table.
"""

import csv
import os
import sys

README = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "README.md")
TITLE = "Bytes sent by all agents at seed 7"


def readme_table(path):
    """The table after TITLE: its column names and {scenario: cells}."""
    with open(path) as f:
        lines = f.read().split(TITLE, 1)[1].splitlines()
    rows = []
    for line in lines:
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip().strip("|").split("|")])
        elif rows:
            break
    header, body = rows[0], rows[2:]  # rows[1] is the alignment row
    return header[1:], {r[0].strip("`"): r[1:] for r in body}


def sent_kb(path, columns):
    """Bytes sent per column, summed over agents, in kB to one decimal."""
    sent = dict.fromkeys(columns, 0)
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            sent[row["category"]] += int(row["bytes_sent"])
    sent["total"] = sum(sent.values())
    return [f"{sent[c] / 1000:.1f}" for c in columns]


def main(ledgers):
    columns, table = readme_table(README)
    have = {os.path.basename(os.path.dirname(p)): p for p in ledgers}
    errors = [f"README has no row for {s}" for s in sorted(have.keys() - table.keys())]
    errors += [f"no ledger for README's row {s}" for s in sorted(table.keys() - have.keys())]
    for scenario in sorted(have.keys() & table.keys()):
        for column, said, got in zip(columns, table[scenario],
                                     sent_kb(have[scenario], columns)):
            if said != got:
                errors.append(f"{scenario} {column}: README says {said}, the ledger gives {got}")
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"README's byte table matches {len(have)} ledgers")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
