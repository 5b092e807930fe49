#!/usr/bin/env bash
# Golden scenario summaries: the behaviour oracle for refactors.
#
# Runs flexran-sim on every scenarios/*.yaml at seeds 1, 7 and 13 and diffs
# its stdout against the checked-in golden <scenario>.seed<N>.txt. The
# simulator is deterministic, so any difference is a behaviour change.
#
#   check_summaries.sh FLEXRAN_SIM SCENARIO_DIR GOLDEN_DIR           # compare
#   check_summaries.sh FLEXRAN_SIM SCENARIO_DIR GOLDEN_DIR --update  # rewrite
#
# Registered with ctest as GoldenSummaries (tests/CMakeLists.txt).
set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 FLEXRAN_SIM SCENARIO_DIR GOLDEN_DIR [--update]" >&2
  exit 2
fi
sim="$1"
scenario_dir="$2"
golden_dir="$3"
update="${4:-}"

# The metrics block's "cycle us (mean/max)" line (one per shard) reports
# wall-clock stage timings of the host running the simulation; it is the
# only line that differs between repeat runs, so it is dropped. Every other
# line is simulated state and must match byte for byte.
summary() {
  "${sim}" --seed="$2" "$1" 2>/dev/null | grep -v 'cycle us (mean/max):'
}

failed=0
checked=0
for scenario in "${scenario_dir}"/*.yaml; do
  name="$(basename "${scenario}" .yaml)"
  for seed in 1 7 13; do
    golden="${golden_dir}/${name}.seed${seed}.txt"
    if [[ "${update}" == "--update" ]]; then
      summary "${scenario}" "${seed}" >"${golden}"
      continue
    fi
    checked=$((checked + 1))
    if [[ ! -f "${golden}" ]]; then
      echo "MISSING golden ${golden} (run with --update to create it)"
      failed=$((failed + 1))
    elif ! diff -u "${golden}" <(summary "${scenario}" "${seed}"); then
      echo "MISMATCH ${name} seed ${seed}"
      failed=$((failed + 1))
    fi
  done
done

if [[ "${update}" == "--update" ]]; then
  echo "goldens written to ${golden_dir}"
  exit 0
fi
echo "${checked} summaries checked, ${failed} differ"
[[ ${failed} -eq 0 ]]
