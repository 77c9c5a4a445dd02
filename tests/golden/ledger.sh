#!/bin/sh
# Regenerates tests/golden/ledger.sha256 from the current tree: the sha256 of
# ledger.csv for each shipped scenario at seeds 1, 2, 3 and 7, headed by the
# numpy version the runs used.  Run it from the repository root:
#
#     sh tests/golden/ledger.sh
#
# CI installs that numpy version and checks the file at the end of its
# shipped-scenario step.  A change that moves any ledger regenerates the file,
# so its diff names the digests that changed.
set -e
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for s in blackout_recovery coop_loops fig3_replay leader_failover; do
  for seed in 1 2 3 7; do
    PYTHONPATH=src python -m meshslam.cli sim --scenario "scenarios/$s.yaml" \
      --seed "$seed" --out "$out/$seed/$s" > /dev/null
  done
done
{
  echo "# numpy $(python -c 'import numpy; print(numpy.__version__)')"
  echo "# regenerate: sh tests/golden/ledger.sh"
  (cd "$out" && sha256sum -- */*/ledger.csv)
} > tests/golden/ledger.sha256
