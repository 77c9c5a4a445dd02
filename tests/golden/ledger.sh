#!/bin/sh
# Regenerates tests/golden/ledger.sha256 from the current tree: for each
# shipped scenario at seeds 1, 2, 3 and 7, the sha256 of ledger.csv, of
# trajectory_gt.csv and of the run's (time, agent, event) sequence (written
# as event_sequence.txt by tests/golden/event_sequence.py), headed by the
# numpy version the runs used and the zlib that wrote the frames' DEFLATE
# streams (a frame's size, and so the ledger, depends on it).  The ground
# truth and the event sequence are the same under every OpenBLAS core, so a
# change that may move only ledger.csv leaves their lines as they are.  Run
# it from the repository root:
#
#     sh tests/golden/ledger.sh
#
# CI installs that numpy version, prints the runtime zlib version (it cannot
# pin zlib, so a runner whose zlib writes other streams fails the check
# visibly) and checks the file at the end of its shipped-scenario step.  A
# change that moves any of these files regenerates the file, so its diff
# names the digests that changed.
set -e
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for s in blackout_recovery coop_loops fig3_replay leader_failover; do
  for seed in 1 2 3 7; do
    PYTHONPATH=src python -m meshslam.cli sim --scenario "scenarios/$s.yaml" \
      --seed "$seed" --out "$out/$seed/$s" > /dev/null
  done
done
python tests/golden/event_sequence.py "$out"/*/*/events.jsonl
{
  echo "# numpy $(python -c 'import numpy; print(numpy.__version__)')"
  echo "# zlib $(python -c 'import zlib; print(zlib.ZLIB_RUNTIME_VERSION)')"
  echo "# regenerate: sh tests/golden/ledger.sh"
  (cd "$out" && sha256sum -- */*/ledger.csv */*/trajectory_gt.csv */*/event_sequence.txt)
} > tests/golden/ledger.sha256
