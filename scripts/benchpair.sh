#!/usr/bin/env bash
# Pair runner for the benchmark: runs cmd/ppmload from two checkouts,
# a parent and a change, N rounds, flipping which side goes first each
# round, and prints one row per end-to-end metric: the parent's median
# and quartiles, the change's median, in how many of the N pairs the
# change was better (BENCHMARK.json's "better"; a tie is no win), the
# median of the paired differences (change - parent) and the two-sided
# sign-test p-value of those differences (ties dropped). The
# cpu_s row is the user+sys CPU seconds of each run's process, read from
# bash's `times` around it, so it is not blurred by time spent waiting
# for a shared CPU the way ops_per_s and setup_s are.
#
#   scripts/benchpair.sh PARENT CHANGE WORKLOAD N [OUT]
#
# WORKLOAD "all" runs every workload of CHANGE's BENCHMARK.json in its
# order, N pairs each, and prints one table per workload. With OUT, the
# tables are also written there as JSON (the BENCH_<n>.json form): the
# seed, run length, pair count, nproc and Go version the runs report,
# and per workload and metric the parent's quartiles, the change's
# median, pairs won, the median paired difference and the sign p. It
# keeps only the names BENCHMARK.json defines: failed and attempted as
# ops.failed and ops.attempted, and no cpu_s.
# PARENT and CHANGE are checkout roots. Each one's ppmload is built
# once, through its own cmd/ppmload/run.sh, into its .bench_build/.
# SEED (default 1), RUN_SECONDS (10) and TRACE (0) set every run's
# -seed, -seconds and -trace. Needs jq.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ] || ! [ "$4" -ge 1 ] 2>/dev/null; then
	echo "usage: scripts/benchpair.sh PARENT CHANGE WORKLOAD N [OUT]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
rounds=$4
if [ "$3" = all ]; then
	workloads=$(jq -r '.workloads[].name' "$change/BENCHMARK.json")
else
	workloads=$3
fi

for root in "$parent" "$change"; do
	(cd "$root" && bash cmd/ppmload/run.sh -h >/dev/null)
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# cpu prints the children's user+sys seconds so far. `times` runs in
# this shell, not in a command substitution's subshell, whose children
# would be none of these.
cpu() {
	times >"$out/times"
	awk 'NR == 2 {
		split($1 " " $2, t, /[ ms]+/)
		printf "%.3f\n", t[1] * 60 + t[2] + t[3] * 60 + t[4]
	}' "$out/times"
}

# one runs one side's ppmload and appends its metrics to $out/SIDE.
one() {
	local side=$1 root=$2 before after
	cpu >"$out/before"
	(cd "$root" && exec .bench_build/ppmload "${args[@]}") >"$out/run.txt"
	cpu >"$out/after"
	head -n 1 "$out/run.txt" >"$out/header"
	before=$(cat "$out/before") after=$(cat "$out/after")
	tail -n 1 "$out/run.txt" | jq -r --argjson before "$before" --argjson after "$after" \
		'(.metrics | to_entries[] | "\(.key) \(.value.value)"), "attempted \(.attempted)", "failed \(.failed)",
		"cpu_s \($after - $before)"' >>"$out/$side"
}

# Which way is better, per metric: BENCHMARK.json's, lower for cpu_s
# and failed, higher for attempted.
jq -r '.end_to_end[] | "\(.name) \(.better)"' "$change/BENCHMARK.json" >"$out/better"
printf 'cpu_s lower\nfailed lower\nattempted higher\n' >>"$out/better"

for workload in $workloads; do
	args=(-workload "$workload" -seed "${SEED:-1}" -seconds "${RUN_SECONDS:-10}" -trace "${TRACE:-0}")
	rm -f "$out/parent" "$out/change"
	for ((r = 1; r <= rounds; r++)); do
		if ((r % 2)); then
			one parent "$parent"
			one change "$change"
		else
			one change "$change"
			one parent "$parent"
		fi
	done

	echo "$workload: ${args[*]}, $rounds pairs, first side alternating"
	awk -v rounds="$rounds" -v workload="$workload" -v rows="$out/rows" '
		function sort(a, n,   i, j, t) {
			for (i = 2; i <= n; i++)
				for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		}
		function q(a, n, p,   x, i) { # linear interpolation between closest ranks
			x = 1 + p * (n - 1); i = int(x)
			return i >= n ? a[n] : a[i] + (x - i) * (a[i+1] - a[i])
		}
		FILENAME ~ /better$/ { better[$1] = $2; next }
		FILENAME ~ /parent$/ { np[$1]++; p[$1, np[$1]] = $2; if (!($1 in seen)) { seen[$1]; order[++m] = $1 } ; next }
		{ nc[$1]++; c[$1, nc[$1]] = $2 }
		function signp(pos, neg,   n, k, i, c, sum) { # two-sided, ties dropped
			n = pos + neg; k = pos < neg ? pos : neg; c = 1; sum = 0
			for (i = 0; i <= k; i++) { sum += c; c = c * (n - i) / (i + 1) }
			return n == 0 || 2 * sum >= 2 ^ n ? 1 : 2 * sum / 2 ^ n
		}
		END {
			printf "%-14s %14s %14s %14s %14s %7s %14s %8s\n", "metric", "parent q1", "parent median", "parent q3", "change median", "won", "median diff", "sign p"
			for (k = 1; k <= m; k++) {
				name = order[k]; n = np[name]
				if (!(name in better)) continue
				won = pos = neg = 0
				for (i = 1; i <= n; i++) {
					pv[i] = p[name, i]; cv[i] = c[name, i]; dv[i] = cv[i] - pv[i]
					if (better[name] == "lower" ? cv[i] < pv[i] : cv[i] > pv[i]) won++
					if (dv[i] > 0) pos++; else if (dv[i] < 0) neg++
				}
				sort(pv, n); sort(cv, n); sort(dv, n)
				printf "%-14s %14.8g %14.8g %14.8g %14.8g %4d/%d %14.6g %8.4g\n", name, q(pv, n, .25), q(pv, n, .5), q(pv, n, .75), q(cv, n, .5), won, rounds, q(dv, n, .5), signp(pos, neg)
				if (name == "cpu_s") continue
				if (name == "failed" || name == "attempted") name = "ops." name
				printf "%s\t%s\t%.8g\t%.8g\t%.8g\t%.8g\t%d\t%.6g\t%.4g\n", workload, name, q(pv, n, .25), q(pv, n, .5), q(pv, n, .75), q(cv, n, .5), won, q(dv, n, .5), signp(pos, neg) >>rows
			}
		}' "$out/better" "$out/parent" "$out/change"
done

if [ $# -eq 5 ]; then
	# The runs' header line names the host's nproc and the Go version.
	header=$(cat "$out/header")
	nproc=$(sed -n 's/.* nproc=\([0-9]*\).*/\1/p' <<<"$header")
	jq -Rn --argjson seed "${SEED:-1}" --argjson seconds "${RUN_SECONDS:-10}" --argjson pairs "$rounds" \
		--argjson nproc "${nproc:-0}" --arg go "${header##* }" '
		reduce (inputs | split("\t")) as $r ({seed: $seed, run_seconds: $seconds, pairs: $pairs, nproc: $nproc, go: $go, workloads: {}};
			.workloads[$r[0]][$r[1]] = {parent_q1: ($r[2] | tonumber), parent_median: ($r[3] | tonumber),
				parent_q3: ($r[4] | tonumber), change_median: ($r[5] | tonumber), won: ($r[6] | tonumber),
				median_diff: ($r[7] | tonumber), sign_p: ($r[8] | tonumber)})' "$out/rows" >"$5"
fi
