#!/usr/bin/env bash
# Command-line tools must refuse malformed input instead of running
# something else. Each case exits 0 when the tool refused as expected.
#
#   rejects_malformed_input.sh scenario <flexran-sim> <scenarios-dir>
#     A UE item written "- -enb: 2" in two_cell_mixed.yaml must fail with
#     a line-numbered parse error, not run as a default UE.
#   rejects_malformed_input.sh bench_wire <bench_wire>
#     An unknown flag prints usage and exits 2, writing no file.
set -uo pipefail

work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

case "$1" in
  scenario)
    sed '0,/^  - enb: 2$/s//  - -enb: 2/' "$3/two_cell_mixed.yaml" > "${work}/bad.yaml"
    grep -q -- '- -enb: 2' "${work}/bad.yaml" || { echo "mutation not applied"; exit 1; }
    "$2" "${work}/bad.yaml" > "${work}/out.txt" 2>&1
    status=$?
    cat "${work}/out.txt"
    [[ ${status} -ne 0 ]] || { echo "FAIL: flexran-sim exited 0"; exit 1; }
    grep -q 'yaml line [0-9]' "${work}/out.txt" || { echo "FAIL: no line number"; exit 1; }
    ;;
  bench_wire)
    (cd "${work}" && "$2" --help)
    status=$?
    [[ ${status} -eq 2 ]] || { echo "FAIL: bench_wire --help exited ${status}"; exit 1; }
    leftovers="$(ls -A "${work}")"
    [[ -z "${leftovers}" ]] || { echo "FAIL: bench_wire wrote ${leftovers}"; exit 1; }
    ;;
  *)
    echo "unknown case: $1"
    exit 1
    ;;
esac
echo "ok"
