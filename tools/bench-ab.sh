#!/usr/bin/env bash
# Paired A/B of one BENCHMARK.json workload between a base ref and the
# working tree, by the rule of the choosing-metrics guide (section 8):
# PAIRS pairs of bench/run.sh runs, alternating which side runs first,
# pair i on seed i; each side's median and quartiles; the pair win count.
# A gain may be claimed when the change wins at least nine tenths of the
# pairs (ties count for neither side) and the medians differ by more than
# the distance between the base's own quartiles.
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

# run DIR SEED prints the metric of one bench/run.sh run (its last line is
# the contract's JSON object) or fails when the run reports failed units.
run() {
	local line
	line=$(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
	case $line in *'"failed":0'*) ;; *) echo "bench-ab: failed units in $1: $line" >&2; return 1 ;; esac
	echo "$line" | grep -o "\"$metric\":{\"value\":[-+0-9.eE]*" | sed 's/.*://'
}

echo "bench-ab: $workload $metric ($better is better), $pairs pairs, base $(git -C "$root" rev-parse --short "$base") vs working tree"
b=() c=()
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then vb=$(run "$tmp" "$i"); vc=$(run "$root" "$i"); else vc=$(run "$root" "$i"); vb=$(run "$tmp" "$i"); fi
	b+=("$vb") c+=("$vc")
	echo "pair $i seed $i  base $vb  change $vc"
done

# Quartiles as Python's statistics.quantiles(n=4) gives them, like bench/.
printf '%s\n' "${b[@]}" | sort -g >"$tmp/base.sorted"
printf '%s\n' "${c[@]}" | sort -g >"$tmp/change.sorted"
paste <(printf '%s\n' "${b[@]}") <(printf '%s\n' "${c[@]}") >"$tmp/pairs"
awk -v better="$better" -v metric="$metric" '
function q(a, n, p,   h, lo) { h = (n + 1) * p; lo = int(h); if (lo < 1) return a[1]; if (lo >= n) return a[n]; return a[lo] + (h - lo) * (a[lo + 1] - a[lo]) }
FILENAME ~ /base.sorted$/ { B[++nb] = $1; next }
FILENAME ~ /change.sorted$/ { C[++nc] = $1; next }
{ if ($1 == $2) ties++; else if ((better == "higher") == ($2 > $1)) wins++ }
END {
	bm = q(B, nb, .5); cm = q(C, nc, .5); iqr = q(B, nb, .75) - q(B, nb, .25)
	printf "base    median %.6g  q1 %.6g  q3 %.6g\n", bm, q(B, nb, .25), q(B, nb, .75)
	printf "change  median %.6g  q1 %.6g  q3 %.6g\n", cm, q(C, nc, .25), q(C, nc, .75)
	gain = (better == "higher") ? cm - bm : bm - cm
	printf "change wins %d of %d pairs (%d ties); median %s by %.2f %% of the base median, base quartile distance %.2f %%\n",
		wins, nb, ties, (gain >= 0) ? "better" : "worse", 100 * ((gain < 0) ? -gain : gain) / bm, 100 * iqr / bm
	met = (wins * 10 >= nb * 9 && gain > iqr)
	printf "gain on %s: %s\n", metric, met ? "may be claimed" : "may NOT be claimed"
}' "$tmp/base.sorted" "$tmp/change.sorted" "$tmp/pairs"
