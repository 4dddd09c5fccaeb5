#!/usr/bin/env bash
# Runs the end-to-end pass N times (default 5) and prints, per metric and
# workload, median, quartiles and relative spread; the report goes to
# benchmark/out/repeat.json (or --out FILE) for `run.sh compare`.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" repeat "${1:-5}" "${@:2}"
