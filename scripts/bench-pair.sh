#!/usr/bin/env bash
# Paired benchmark of a base revision against the working tree — the
# protocol every performance claim in this repository rests on (ROADMAP,
# open-items preamble; bench/README.md, "held-out seed"):
#
#   scripts/bench-pair.sh BASE WORKLOAD SEED PAIRS    (or: make bench-pair ...)
#
# BASE is checked out into a `git clone --shared` of the repository under
# .bench_build/ and removed again on exit. Each pair runs `bash bench/run.sh --workload WORKLOAD
# --seed SEED --seconds 20 --trace 0` once in either tree, alternating which
# side goes first; each tree builds its own swload and swserve from its own
# source. Each run's closing JSON line is kept in
# .bench_build/pair/WORKLOAD-sSEED-{base,change}.jsonl (one line per pair,
# so pairing another workload or seed leaves these files alone), and its
# five end-to-end values are printed as it finishes. For every end-to-end
# metric the script then prints both sides' median and quartiles and how
# many pairs the working tree won (ties count for neither), and splits those
# wins by which side ran first: odd pairs run the base first, even pairs the
# working tree, and on a host where the second run reads better a real
# difference shows in both halves, an order effect in one only. A run that
# fails its verification aborts the script.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 BASE WORKLOAD SEED PAIRS" >&2
	exit 2
fi
base=$1 workload=$2 seed=$3 pairs=$4
root=$(git rev-parse --show-toplevel)
cd "$root"
sha=$(git rev-parse --verify "$base^{commit}")
out="$root/.bench_build/pair"
tree="$out/base-${sha:0:12}"
mkdir -p "$out"
trap 'rm -rf "$tree"' EXIT
rm -rf "$tree"
git clone --quiet --shared --no-checkout "$root" "$tree"
git -C "$tree" checkout --quiet --detach "$sha"
metrics="setup_s gcups latency_p50_ms peak_rss_mb cpu_s_per_gcell"
# file SIDE names SIDE's results file for this workload and seed.
file() {
	echo "$out/$workload-s$seed-$1.jsonl"
}
: >"$(file base)"
: >"$(file change)"

# values SIDE METRIC prints the metric's value in each of SIDE's runs.
values() {
	grep -o "\"$2\":{\"value\":[^,}]*" "$(file "$1")" | sed 's/.*://'
}
# run SIDE DIR appends the run's closing JSON line to SIDE's file and
# prints its end-to-end values.
run() {
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0) | tail -n 1 >>"$(file "$1")"
	local m line="  $1:"
	for m in $metrics; do
		line+=" $m=$(printf '%.4g' "$(values "$1" "$m" | tail -n 1)")"
	done
	echo "$line failed=$(grep -o '"failed":[0-9]*' "$(file "$1")" | tail -n 1 | cut -d: -f2)" >&2
}
for i in $(seq 1 "$pairs"); do
	echo "pair $i/$pairs" >&2
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tree"
		run change "$root"
	else
		run change "$root"
		run base "$tree"
	fi
done

# quartiles prints the median and the quartiles of the numbers on stdin.
quartiles() {
	sort -g | awk '
		{ v[NR] = $1 }
		function q(p,   h, lo) { h = 1 + (NR - 1) * p; lo = int(h); return lo >= NR ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
		END { printf "%.4g [%.4g, %.4g]", q(0.5), q(0.25), q(0.75) }'
}
echo
echo "workload $workload, seed $seed, $pairs pairs, base ${sha:0:12}: median [q1, q3]"
printf '%-18s %-34s %-34s %s\n' metric base change "change wins"
# wins METRIC prints, per pair, 1 where the change won on the metric and 0
# where it did not.
wins() {
	local better=lower
	[ "$1" = gcups ] && better=higher
	paste <(values base "$1") <(values change "$1") |
		awk -v better=$better '{ print ($1 != $2 && (($2 > $1) == (better == "higher"))) }'
}
for m in $metrics; do
	printf '%-18s %-34s %-34s %s/%s\n' "$m" "$(values base "$m" | quartiles)" "$(values change "$m" | quartiles)" \
		"$(wins "$m" | awk '{ w += $1 } END { print w + 0 }')" "$pairs"
done
echo
echo "change wins by which side ran first: base first (odd pairs) | change first (even pairs)"
for m in $metrics; do
	printf '%-18s %s\n' "$m" "$(wins "$m" | awk '
		NR % 2 { bn++; bw += $1; next } { cn++; cw += $1 }
		END { printf "%d/%d | %d/%d", bw, bn, cw, cn }')"
done
# failed SIDE sums the failed requests over SIDE's runs.
failed() {
	grep -o '"failed":[0-9]*' "$(file "$1")" | awk -F: '{ n += $2 } END { print n + 0 }'
}
echo "failed requests: base $(failed base), change $(failed change)"
