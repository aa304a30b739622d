#!/usr/bin/env bash
# Identity check for a change meant to keep the simulation as it was:
# runs cmd/ppmload from two checkouts, a parent and a change, on every
# workload at seed 1 and on chaos again at seed 2 (one second each, the
# tracer off), and diffs the "simulated state" blocks of each pair. The
# block is exact for a seed and size, so any difference is a change of
# behaviour. The "note:" lines (wall-clock facts) and the JSON result
# line are left out.
#
#   scripts/simdiff.sh PARENT CHANGE
#
# PARENT and CHANGE are checkout roots; each one's ppmload is built
# through its own cmd/ppmload/run.sh, into its .bench_build/. Prints one
# line per run and every differing block; exits 1 if any block differs.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: scripts/simdiff.sh PARENT CHANGE" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

for root in "$parent" "$change"; do
	(cd "$root" && bash cmd/ppmload/run.sh -h >/dev/null)
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# state prints the simulated-state block of one run, less its notes.
state() {
	(cd "$1" && exec .bench_build/ppmload -workload "$2" -seed "$3" -seconds 1 -trace 0) |
		awk '/^simulated state/ { on = 1 } on && !/^note:/ && !/^\{/'
}

status=0
for run in control:1 fanout:1 churn:1 chaos:1 observe:1 chaos:2; do
	workload=${run%:*} seed=${run#*:}
	state "$parent" "$workload" "$seed" >"$out/parent"
	state "$change" "$workload" "$seed" >"$out/change"
	if [ ! -s "$out/parent" ]; then
		echo "$workload seed $seed: no simulated state printed" >&2
		status=1
	elif diff -u "$out/parent" "$out/change" >"$out/diff"; then
		echo "$workload seed $seed: identical ($(wc -l <"$out/parent") lines)"
	else
		echo "$workload seed $seed: DIFFERS"
		cat "$out/diff"
		status=1
	fi
done
exit $status
