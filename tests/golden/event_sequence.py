"""Writes event_sequence.txt next to each events.jsonl named on the command
line: one line per logged event, its time, agent and event name, without the
event's detail.

The detail holds floats from the alignment fits, whose last bits move with
the OpenBLAS core; the sequence does not, so its digest is checked where
events.jsonl's cannot be.  Used by ``tests/golden/ledger.sh`` and by CI:

    python tests/golden/event_sequence.py RUN_DIR/events.jsonl ...
"""

import json
import os
import sys

for path in sys.argv[1:]:
    with open(path) as src, \
            open(os.path.join(os.path.dirname(path), "event_sequence.txt"), "w") as out:
        for e in map(json.loads, src):
            out.write(f"{e['time']} {e['agent']} {e['event']}\n")
