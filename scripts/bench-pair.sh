#!/usr/bin/env bash
# The paired-run recipe of benchmark/README.md as one command.
#
#   scripts/bench-pair.sh <parent-rev> <workload>[,<workload>...] [pairs=10]
#
# Compares <parent-rev> with the tree this script is run from (committed or
# not). Each side's ./benchmark is built once — the parent's from a
# `git archive` of <parent-rev> in a temp dir — and the two binaries are run
# alternately from their own trees, one workload per invocation, pair i on
# seed SEED0+i, parent first on odd i and change first on even i. Per
# end-to-end metric it prints each side's median and quartiles over the
# pairs and the pairs the change won (ties count for neither), and marks a
# metric "gain" when, over at least ten pairs, the change won nine tenths of
# them and the medians differ by more than the parent's inter-quartile
# distance.
#
# Environment:
#   SEED0=0      pair i runs on seed SEED0+i
#   SECONDS_PER_RUN=10   the benchmark's -seconds, the same on both sides
#   TRACE=0      1: after the pairs, one `-trace 1` run per side (seed
#                SEED0+pairs+1) whose per-layer metrics are reported too
#   OUT=         write the full record (every run, the summary, the traced
#                runs) as JSON to this file
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
	sed -n '2,4p' "$0" >&2
	exit 2
fi
parent_rev=$1
IFS=',' read -r -a workloads <<<"$2"
pairs=${3:-10}
seed0=${SEED0:-0}
seconds=${SECONDS_PER_RUN:-10}
trace=${TRACE:-0}
out=${OUT:-}

root=$(git rev-parse --show-toplevel)
parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
change_sha=$(git -C "$root" rev-parse HEAD)
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
	change_sha="$change_sha+uncommitted"
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent" "$tmp/runs"
git -C "$root" archive "$parent_sha" | tar -x -C "$tmp/parent"
(cd "$tmp/parent" && go build -o "$tmp/bench-parent" ./benchmark)
(cd "$root" && go build -o "$tmp/bench-change" ./benchmark)

# run <side> <workload> <seed> <file> [extra flags]: one invocation from the
# side's own tree; its "<workload> <metric> <value> <unit>" lines go to file.
run() {
	local side=$1 w=$2 seed=$3 file=$4 dir status=0
	shift 4
	dir=$root
	[ "$side" = parent ] && dir=$tmp/parent
	(cd "$dir" && "$tmp/bench-$side" -workload "$w" -seed "$seed" -seconds "$seconds" "$@") >"$tmp/stdout" 2>"$tmp/stderr" || status=$?
	if [ "$status" -ne 0 ]; then
		echo "bench-pair: $side $w seed $seed exited $status (failed operations count against that side)" >&2
		tail -n 5 "$tmp/stderr" >&2
	fi
	awk -v w="$w" '$1 == w && NF == 4 { print $2, $3, $4 }' "$tmp/stdout" >"$file"
}

end_to_end=$(awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); print name ":" $2 }' "$root/BENCHMARK.json")

for w in "${workloads[@]}"; do
	for i in $(seq 1 "$pairs"); do
		seed=$((seed0 + i))
		order="parent change"
		[ $((i % 2)) -eq 0 ] && order="change parent"
		for side in $order; do
			run "$side" "$w" "$seed" "$tmp/runs/$w.$i.$side"
		done
		printf 'pair %2d/%d seed %d (%s first): %s\n' "$i" "$pairs" "$seed" "${order%% *}" "$w" >&2
	done
	if [ "$trace" = 1 ]; then
		for side in parent change; do
			run "$side" "$w" $((seed0 + pairs + 1)) "$tmp/runs/$w.traced.$side" -trace 1
		done
	fi
done

# The summary and the JSON record, from the per-run files.
summarise() {
	awk -v pairs="$pairs" -v runs="$tmp/runs" -v e2e="$end_to_end" -v trace="$trace" -v wl="${workloads[*]}" \
		-v parent="$parent_sha" -v change="$change_sha" -v seed0="$seed0" -v seconds="$seconds" -v json="$1" '
	function load(file, into,    line, f) {
		delete into
		while ((getline line < file) > 0) { split(line, f, " "); into[f[1]] = f[2]; unit[f[1]] = f[3] }
		close(file)
	}
	# quantile q of v[1..n] (sorted in place), linear interpolation
	function quantile(v, n, q,    i, j, t, pos, lo) {
		for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
		pos = 1 + (n - 1) * q; lo = int(pos)
		return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
	}
	function obj(m,    k, s, sep) {
		s = "{"; sep = ""
		for (k in m) { s = s sep "\"" k "\": " m[k]; sep = ", " }
		return s "}"
	}
	BEGIN {
		CONVFMT = "%.9g"
		nm = split(e2e, spec, /[ \n]+/); nw = split(wl, ws, " ")
		out = "{\n  \"parent\": \"" parent "\",\n  \"change\": \"" change "\",\n  \"seconds\": " seconds ",\n  \"workloads\": {"
		for (wi = 1; wi <= nw; wi++) {
			w = ws[wi]
			out = out (wi > 1 ? "," : "") "\n    \"" w "\": {\n      \"pairs\": " pairs ",\n      \"runs\": ["
			for (i = 1; i <= pairs; i++) {
				load(runs "/" w "." i ".parent", p); load(runs "/" w "." i ".change", c)
				out = out (i > 1 ? "," : "") "\n        {\"seed\": " (seed0 + i) ", \"first\": \"" (i % 2 ? "parent" : "change") "\", \"parent\": " obj(p) ", \"change\": " obj(c) "}"
				for (k = 1; k <= nm; k++) { split(spec[k], s, ":"); pv[s[1], i] = p[s[1]]; cv[s[1], i] = c[s[1]] }
				pf += p["failed_ops"]; cf += c["failed_ops"]
			}
			out = out "\n      ],\n      \"summary\": {"
			printf "\n%s: %d pairs, parent %s, change %s\n", w, pairs, substr(parent, 1, 7), substr(change, 1, 7) substr(change, 41)
			printf "  %-20s %-6s %34s   %34s   %s\n", "metric", "", "parent q1 / median / q3", "change q1 / median / q3", "change wins"
			for (k = 1; k <= nm; k++) {
				split(spec[k], s, ":"); m = s[1]; wins = ties = 0
				for (i = 1; i <= pairs; i++) {
					a[i] = pv[m, i]; b[i] = cv[m, i]
					if (b[i] == a[i]) ties++
					else if ((s[2] == "lower") == (b[i] < a[i])) wins++
				}
				p1 = quantile(a, pairs, .25); p2 = quantile(a, pairs, .5); p3 = quantile(a, pairs, .75)
				c1 = quantile(b, pairs, .25); c2 = quantile(b, pairs, .5); c3 = quantile(b, pairs, .75)
				gap = p2 - c2; if (gap < 0) gap = -gap
				clear = pairs >= 10 && ((s[2] == "lower") == (c2 < p2)) && gap > p3 - p1 && wins * 10 >= pairs * 9
				printf "  %-20s %-6s %10.6g / %10.6g / %10.6g   %10.6g / %10.6g / %10.6g   %d/%d%s%s\n", m, unit[m], p1, p2, p3, c1, c2, c3, wins, pairs, ties ? " (" ties " ties)" : "", clear ? "  gain" : ""
				out = out (k > 1 ? "," : "") "\n        \"" m "\": {\"unit\": \"" unit[m] "\", \"better\": \"" s[2] "\", \"parent\": {\"q1\": " p1 ", \"median\": " p2 ", \"q3\": " p3 "}, \"change\": {\"q1\": " c1 ", \"median\": " c2 ", \"q3\": " c3 "}, \"change_wins\": " wins ", \"ties\": " ties ", \"pairs\": " pairs ", \"gain\": " (clear ? "true" : "false") "}"
			}
			printf "  failed operations: parent %d, change %d\n", pf, cf
			out = out "\n      },\n      \"failed_ops\": {\"parent\": " pf + 0 ", \"change\": " cf + 0 "}"
			pf = cf = 0
			if (trace == 1) {
				load(runs "/" w ".traced.parent", p); load(runs "/" w ".traced.change", c)
				out = out ",\n      \"traced\": {\"seed\": " (seed0 + pairs + 1) ", \"parent\": " obj(p) ", \"change\": " obj(c) "}"
				printf "  per-layer metrics of one traced run per side (those that differ):\n"
				for (m in c) if (p[m] != c[m]) printf "    %-28s %12.6g -> %12.6g %s\n", m, p[m], c[m], unit[m] | "sort"
				close("sort")
			}
			out = out "\n    }"
		}
		out = out "\n  }\n}"
		if (json != "") print out > json
	}'
}
summarise "$out"
