#!/usr/bin/env bash
# Paired A/B of one BENCHMARK.json workload between a base ref and the
# working tree, by the rule of the choosing-metrics guide (section 8):
# PAIRS pairs of bench/run.sh runs, alternating which side runs first,
# pair i on seed i; each side's median and quartiles; the pair win count.
# A gain on METRIC may be claimed when the change wins at least nine
# tenths of the pairs (ties count for neither side) and the medians differ
# by more than the distance between the base's own quartiles. Every run
# keeps its whole contract line, so the same pairs also check the
# no-regression rule: for each end_to_end metric of BENCHMARK.json, the
# change's median may be worse than the base's by at most that metric's
# relative bound.
#
#	make bench-ab BASE=HEAD~1 WORKLOAD=knee.serial [PAIRS=10] [METRIC=sim_cycles_per_s]
#
# BASE is exported with `git archive` into a temporary directory (removed
# on exit), so neither the repository nor its worktree list is touched;
# each side builds into its own .bench_build/ as the benchmark driver does.
set -euo pipefail
base=${1:?usage: bench-ab.sh BASE WORKLOAD [PAIRS] [METRIC]}
workload=${2:?usage: bench-ab.sh BASE WORKLOAD [PAIRS] [METRIC]}
pairs=${3:-10}
metric=${4:-sim_cycles_per_s}
root="$(cd "$(dirname "$0")/.." && pwd)"

better=$(awk -v m="\"$metric\"" '$0 ~ "\"name\": *" m {f=1} f && /"better"/ {gsub(/[",]/, "", $2); print $2; exit}' "$root/BENCHMARK.json")
[ -n "$better" ] || { echo "bench-ab: $metric is not an end-to-end or per-layer metric of BENCHMARK.json" >&2; exit 2; }
seconds=$(awk '/"run_seconds"/ {gsub(/[^0-9.]/, "", $2); print $2}' "$root/BENCHMARK.json")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git -C "$root" archive "$base" | tar -x -C "$tmp"

# run DIR SEED prints the contract line of one bench/run.sh run (its last
# line, a JSON object) or fails when the run reports failed units.
run() {
	local line
	line=$(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
	case $line in *'"failed":0'*) ;; *) echo "bench-ab: failed units in $1: $line" >&2; return 1 ;; esac
	echo "$line"
}

# value METRIC prints METRIC's value from each contract line on stdin.
value() { grep -o "\"$1\":{\"value\":[-+0-9.eE]*" | sed 's/.*://'; }

echo "bench-ab: $workload $metric ($better is better), $pairs pairs, base $(git -C "$root" rev-parse --short "$base") vs working tree"
: >"$tmp/base.lines"
: >"$tmp/change.lines"
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then lb=$(run "$tmp" "$i"); lc=$(run "$root" "$i"); else lc=$(run "$root" "$i"); lb=$(run "$tmp" "$i"); fi
	echo "$lb" >>"$tmp/base.lines"
	echo "$lc" >>"$tmp/change.lines"
	echo "pair $i seed $i  base $(value "$metric" <<<"$lb")  change $(value "$metric" <<<"$lc")"
done

# summarize METRIC BETTER [BOUND] compares the two sides' values of METRIC,
# with quartiles as Python's statistics.quantiles(n=4) gives them, like
# bench/. Without BOUND it prints the gain verdict; with BOUND, the
# no-regression verdict.
summarize() {
	value "$1" <"$tmp/base.lines" >"$tmp/base.values" || true
	value "$1" <"$tmp/change.lines" >"$tmp/change.values" || true
	[ -s "$tmp/base.values" ] && [ -s "$tmp/change.values" ] || { echo "bench-ab: no $1 in the contract lines" >&2; exit 2; }
	sort -g "$tmp/base.values" >"$tmp/base.sorted"
	sort -g "$tmp/change.values" >"$tmp/change.sorted"
	paste "$tmp/base.values" "$tmp/change.values" >"$tmp/pairs"
	awk -v metric="$1" -v better="$2" -v bound="${3:-}" '
function q(a, n, p,   h, lo) { h = (n + 1) * p; lo = int(h); if (lo < 1) return a[1]; if (lo >= n) return a[n]; return a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
FNR == 1 { file++ }
file == 1 { B[++nb] = $1; next }
file == 2 { C[++nc] = $1; next }
{ if ($1 == $2) ties++; else if ((better == "higher") == ($2 > $1)) wins++ }
END {
	bm = q(B, nb, .5); cm = q(C, nc, .5); iqr = q(B, nb, .75) - q(B, nb, .25)
	gain = (better == "higher") ? cm - bm : bm - cm
	rel = (bm == 0) ? 0 : ((gain < 0) ? -gain : gain) / bm
	if (bound != "") {
		printf "bound %-17s base median %-11.6g change median %-11.6g %s by %5.2f %%, bound %g %%: %s\n",
			metric, bm, cm, (gain >= 0) ? "better" : "worse", 100 * rel, 100 * bound,
			(gain < 0 && rel > bound) ? "worse than bound" : "within bound"
		exit
	}
	printf "base    median %.6g  q1 %.6g  q3 %.6g\n", bm, q(B, nb, .25), q(B, nb, .75)
	printf "change  median %.6g  q1 %.6g  q3 %.6g\n", cm, q(C, nc, .25), q(C, nc, .75)
	printf "change wins %d of %d pairs (%d ties); median %s by %.2f %% of the base median, base quartile distance %.2f %%\n",
		wins, nb, ties, (gain >= 0) ? "better" : "worse", 100 * rel, 100 * iqr / bm
	met = (wins * 10 >= nb * 9 && gain > iqr)
	printf "gain on %s: %s\n", metric, met ? "may be claimed" : "may NOT be claimed"
}' "$tmp/base.sorted" "$tmp/change.sorted" "$tmp/pairs"
}

summarize "$metric" "$better"
# The no-regression rule: BENCHMARK.json's end_to_end metrics, one
# "name better bound" line each (every entry lists bound last).
awk '/"end_to_end"/ {f = 1} /"per_layer"/ {f = 0}
f && /"name"/ {gsub(/[",]/, "", $2); n = $2}
f && /"better"/ {gsub(/[",]/, "", $2); b = $2}
f && /"bound"/ {gsub(/[",]/, "", $2); print n, b, $2}' "$root/BENCHMARK.json" >"$tmp/e2e"
while read -r name dir bound; do
	summarize "$name" "$dir" "$bound"
done <"$tmp/e2e"
