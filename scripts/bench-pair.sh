#!/bin/sh
# bench-pair.sh — noise-aware before/after comparison of one benchmark
# workload (make bench-pair BASE=<git ref> W=<workload> N=10 SEED=1).
#
# Exports BASE into a temporary directory, then runs
#   go run ./bench --workload W --seed SEED --seconds 20 --trace 0
# on it and on the working tree N times each, alternating which side goes
# first, and prints every pair's four end-to-end metrics and the rounds each
# side completed in its fixed run (the result's "attempted": a faster change
# gets through more of them), followed by, per metric, the pairs the working
# tree won, both medians and both quartile pairs, and the median rounds per
# run. The rule a claim is held to (bench/README.md): the working tree
# wins at least nine tenths of the pairs and the medians differ by more
# than the distance between the base's own quartiles.
#
# POSIX sh, git, tar, sed, sort, awk and the go toolchain only.
set -eu

BASE=${1:?usage: bench-pair.sh BASE [WORKLOAD] [N] [SEED] [SECONDS]}
W=${2:-uniform_fit}
N=${3:-10}
SEED=${4:-1}
SECONDS_PER_RUN=${5:-20}
METRICS="rel_wall rel_cpu peak_rss_mb setup_s"

cd "$(git rev-parse --show-toplevel)"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/base"
git archive "$BASE" | tar -x -C "$tmp/base"
echo "base $BASE ($(git rev-parse --short "$BASE")) vs working tree, workload $W, seed $SEED, $N pairs of ${SECONDS_PER_RUN}s runs"

# run DIR SIDE PAIR: one benchmark run; appends "side pair metric value"
# lines to $tmp/values and fails if any round missed the oracle.
run() {
	line=$(cd "$1" && go run ./bench --workload "$W" --seed "$SEED" \
		--seconds "$SECONDS_PER_RUN" --trace 0 2>"$tmp/stderr" | tail -n 1) || {
		cat "$tmp/stderr" >&2
		echo "bench-pair: $2 run of pair $3 failed" >&2
		exit 1
	}
	failed=$(printf '%s\n' "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	if [ "$failed" != 0 ]; then
		echo "bench-pair: $2 run of pair $3: failed=$failed: $line" >&2
		exit 1
	fi
	for m in $METRICS; do
		v=$(printf '%s\n' "$line" | sed -n 's/.*"'"$m"'":{"value":\([-+.eE0-9]*\).*/\1/p')
		[ -n "$v" ] || { echo "bench-pair: no $m in: $line" >&2; exit 1; }
		echo "$2 $3 $m $v" >>"$tmp/values"
	done
	rounds=$(printf '%s\n' "$line" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p')
	echo "$2 $3 rounds ${rounds:?bench-pair: no attempted count in: $line}" >>"$tmp/values"
}

i=1
while [ "$i" -le "$N" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run "$tmp/base" base "$i"
		run . head "$i"
	else
		run . head "$i"
		run "$tmp/base" base "$i"
	fi
	awk -v p="$i" '$2 == p { v[$1 " " $3] = $4 }
		END { printf "pair %2d:", p
			n = split("rel_wall rel_cpu peak_rss_mb setup_s", ms, " ")
			for (k = 1; k <= n; k++) printf "  %s %.3f -> %.3f", ms[k], v["base " ms[k]], v["head " ms[k]]
			printf "  rounds %d -> %d\n", v["base rounds"], v["head rounds"] }' "$tmp/values"
	i=$((i + 1))
done

# bound_of METRIC: the fraction by which BENCHMARK.json lets the metric
# worsen (every end-to-end metric is lower-is-better).
bound_of() {
	awk -v m="$1" '
		/"name":/ { gsub(/[",]/, ""); name = $2 }
		/"bound":/ && name == m { gsub(/,/, ""); print $2; exit }' BENCHMARK.json
}

# Linear-interpolation quantile of x[1..n], sorted ascending.
QUANTILE='function quantile(x, n, q,    pos, lo) {
	pos = 1 + (n - 1) * q; lo = int(pos)
	if (lo >= n) return x[n]
	return x[lo] + (pos - lo) * (x[lo + 1] - x[lo])
}'

echo
status=0
for m in $METRICS; do
	bound=$(bound_of "$m")
	[ -n "$bound" ] || { echo "bench-pair: no bound for $m in BENCHMARK.json" >&2; exit 1; }
	# Sorted by value, so each side's lines arrive in rank order.
	sort -k4,4g "$tmp/values" | awk -v m="$m" -v bound="$bound" "$QUANTILE"'
		$3 == m { if ($1 == "base") { b[++nb] = $4; bp[$2] = $4 } else { h[++nh] = $4; hp[$2] = $4 } }
		END {
			for (p in bp) { if (hp[p] < bp[p]) wins++; else if (hp[p] > bp[p]) losses++ }
			bm = quantile(b, nb, 0.5); hm = quantile(h, nh, 0.5)
			worse = hm > bm * (1 + bound)
			printf "%-12s head wins %d of %d (loses %d)  median %.3f -> %.3f (%+.1f%%)  base quartiles %.3f..%.3f (distance %.3f)  head quartiles %.3f..%.3f%s\n",
				m, wins, nb, losses, bm, hm, 100 * (hm - bm) / bm,
				quantile(b, nb, 0.25), quantile(b, nb, 0.75), quantile(b, nb, 0.75) - quantile(b, nb, 0.25),
				quantile(h, nh, 0.25), quantile(h, nh, 0.75),
				worse ? sprintf("  REGRESSION: worse by more than the bound %g", bound) : ""
			exit worse
		}' || status=1
done
sort -k4,4g "$tmp/values" | awk -v secs="$SECONDS_PER_RUN" "$QUANTILE"'
	$3 == "rounds" { if ($1 == "base") b[++nb] = $4; else h[++nh] = $4 }
	END { printf "%-12s median %g -> %g per %ss run\n", "rounds", quantile(b, nb, 0.5), quantile(h, nh, 0.5), secs }'
exit $status
