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
# source. For every end-to-end metric it prints both sides' median and
# quartiles and how many pairs the working tree won (ties count for neither).
# A run that fails its verification aborts the script.
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
: >"$out/base.jsonl"
: >"$out/change.jsonl"

# run SIDE DIR appends the run's closing JSON line to SIDE's file.
run() {
	(cd "$2" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0) | tail -n 1 >>"$out/$1.jsonl"
	echo "  $1: $(tail -n 1 "$out/$1.jsonl" | cut -c1-200)" >&2
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

# values SIDE METRIC prints the metric's value in each of SIDE's runs.
values() {
	grep -o "\"$2\":{\"value\":[^,}]*" "$out/$1.jsonl" | sed 's/.*://'
}
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
for m in setup_s gcups latency_p50_ms peak_rss_mb cpu_s_per_gcell; do
	better=lower
	[ "$m" = gcups ] && better=higher
	wins=$(paste <(values base "$m") <(values change "$m") |
		awk -v better=$better '$1 != $2 && (($2 > $1) == (better == "higher")) { w++ } END { print w + 0 }')
	printf '%-18s %-34s %-34s %s/%s\n' "$m" "$(values base "$m" | quartiles)" "$(values change "$m" | quartiles)" "$wins" "$pairs"
done
# failed SIDE sums the failed requests over SIDE's runs.
failed() {
	grep -o '"failed":[0-9]*' "$out/$1.jsonl" | awk -F: '{ n += $2 } END { print n + 0 }'
}
echo "failed requests: base $(failed base), change $(failed change)"
