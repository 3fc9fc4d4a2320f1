#!/usr/bin/env bash
# Regenerates every table and figure of the SC'98 reproduction.
#
# Usage:
#   ./repro.sh          # scaled-down sizes (minutes)
#   ./repro.sh --full   # the paper's problem sizes (tens of minutes)
#
# Output: text tables on stdout, CSVs and SVG charts under
# target/experiments/.

set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "--full" ]]; then
    export REPRO_FULL=1
    echo "== full (paper-size) reproduction =="
else
    echo "== scaled-down reproduction (pass --full for the paper's sizes) =="
fi

cargo bench -q -p ptdf-bench --bench repro
