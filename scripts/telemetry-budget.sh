#!/usr/bin/env bash
# Telemetry overhead budget: times the same short campaign
# (`-short -attempts 6`) bare, with -artifact, and with -artifact plus
# the ledger, five times each with the modes interleaved so machine
# drift lands on all three alike, and fails when a mode's median wall
# time exceeds its budget relative to the bare median.
#
#   scripts/telemetry-budget.sh bin/hyperhammer
#
# Every mode does the same simulated work, so the ratio is the cost of
# the telemetry planes alone. Needs GNU date (%N).
set -euo pipefail

bin=${1:?usage: telemetry-budget.sh <hyperhammer binary>}
runs=5
artifact_budget=1.5
ledger_budget=2.0

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for ((i = 1; i <= runs; i++)); do
	for mode in bare artifact ledger; do
		case $mode in
		bare) flags=() ;;
		artifact) flags=(-artifact "$work/run.json") ;;
		ledger) flags=(-artifact "$work/run.json" -ledger-epoch 100ms) ;;
		esac
		start=$(date +%s%N)
		# Exit status 1 is also "no escape within the budget", so a
		# completed campaign is recognized by its log line instead.
		"$bin" -short -attempts 6 "${flags[@]}" > "$work/out.txt" 2>&1 || true
		end=$(date +%s%N)
		if ! grep -q 'attempts finished' "$work/out.txt"; then
			echo "telemetry-budget: $mode run $i did not finish:" >&2
			cat "$work/out.txt" >&2
			exit 1
		fi
		echo "$(( (end - start) / 1000 ))" >> "$work/$mode.us"
	done
done

median() { sort -n "$work/$1.us" | sed -n "$(( (runs + 1) / 2 ))p"; }
bare=$(median bare)
status=0
check() {
	local mode=$1 budget=$2
	awk -v mode="$mode" -v m="$(median "$mode")" -v b="$bare" -v lim="$budget" 'BEGIN {
		r = m / b
		printf "telemetry-budget: %-8s median %.3f s = %.2fx bare (budget %.2fx)\n", mode, m / 1e6, r, lim
		exit !(r <= lim)
	}' || status=1
}
awk -v b="$bare" 'BEGIN { printf "telemetry-budget: bare     median %.3f s\n", b / 1e6 }'
check artifact "$artifact_budget"
check ledger "$ledger_budget"
if ((status)); then
	echo "telemetry-budget: FAIL: telemetry overhead over budget" >&2
fi
exit $status
