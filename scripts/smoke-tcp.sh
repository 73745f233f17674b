#!/usr/bin/env bash
# The two TCP binaries end to end over loopback (make smoke-tcp):
#
#   1. flat: flserver -journal over 4 flclients, then flserver -recover on
#      the finished journal — the reconnecting fleet rejoins the journaled
#      roster and is handed the final model;
#   2. hierarchy: flserver -edges 2 over 2 edges (flserver -upstream) of 2
#      flclients each, plain and then masked (-secagg);
#   3. fail-fast: flag combinations fl.ServerConfig.Validate refuses, and
#      flags the chosen role does not read, exit non-zero before flserver
#      listens (all but the first two with the usage status, 2).
#
# Every process runs under a timeout with its output in a temp dir, all of
# which is printed when a row fails. PORT_BASE (default: random in
# [20000, 40000)) picks the ten loopback ports used.
set -euo pipefail

cd "$(dirname "$0")/.."
work=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

fail() {
	echo "smoke-tcp: $*" >&2
	for log in "$work"/*.log; do
		echo "=== $(basename "$log")" >&2
		cat "$log" >&2
	done
	exit 1
}

# start NAME CMD... runs CMD in the background under a timeout, its output
# in NAME.log; the pid lands in $started.
start() {
	local name=$1
	shift
	timeout 180 "$@" >"$work/$name.log" 2>&1 &
	started=$!
	pids+=("$started")
}

# finish NAME PID waits for a started process and requires a clean exit.
finish() {
	wait "$2" || fail "$1 exited with status $?"
}

# expect LOG PATTERN [COUNT] requires COUNT (default 1) lines of LOG to
# match PATTERN.
expect() {
	local got
	got=$(grep -c -- "$2" "$work/$1.log" || true)
	[ "$got" -eq "${3:-1}" ] || fail "$1.log: $got lines match '$2', want ${3:-1}"
}

bin=$work/bin
go build -o "$bin/" ./cmd/flserver ./cmd/flclient
base=${PORT_BASE:-$((20000 + RANDOM % 20000))}
addr() { echo "127.0.0.1:$((base + $1))"; }
client_flags=(-retry 60 -retry-max 500ms)

# 1. Flat, journaled, then recovered from the finished journal.
for phase in fresh recovered; do
	srv=$(addr 0)
	flags=(-journal "$work/flat.journal")
	if [ "$phase" = recovered ]; then
		srv=$(addr 1)
		flags+=(-recover)
	fi
	start "flat-$phase-server" "$bin/flserver" -addr "$srv" -clients 4 -rounds 2 -seed 5 "${flags[@]}"
	server=$started
	clients=()
	for i in 1 2 3 4; do
		start "flat-$phase-client-$i" "$bin/flclient" -addr "$srv" -name "pi-$i" -seed "$i" "${client_flags[@]}"
		clients+=("$started")
	done
	for i in 1 2 3 4; do finish "flat-$phase-client-$i" "${clients[$((i - 1))]}"; done
	finish "flat-$phase-server" "$server"
	expect "flat-$phase-server" "session complete: 4 clients, 2 rounds"
	cat "$work"/flat-$phase-client-*.log >"$work/flat-$phase-clients.log"
	expect "flat-$phase-clients" "final model received" 4
done
expect flat-fresh-server "^round 1: sampled 4, responded 4"
expect flat-recovered-server "resuming at round 2"
expect flat-recovered-clients "completed 0 rounds" 4

# 2. Hierarchy: a root over two edges of two clients each, plain and then
# masked (-secagg: every shard masks its own cohort and forwards ring sums).
# hier NAME PORT0 [ROOT FLAGS...] runs one on ports PORT0..PORT0+2.
hier() {
	local name=$1 port=$2
	shift 2
	start "$name-root" "$bin/flserver" -addr "$(addr "$port")" -edges 2 -rounds 2 "$@"
	local root=$started edges=() clients=()
	for e in 0 1; do
		start "$name-edge-$e" "$bin/flserver" -upstream "$(addr "$port")" -name "edge-$e" \
			-addr "$(addr $((port + 1 + e)))" -clients 2 "${client_flags[@]}"
		edges+=("$started")
	done
	for i in 1 2 3 4; do
		start "$name-client-$i" "$bin/flclient" -addr "$(addr $((port + 1 + (i - 1) / 2)))" -name "pi-$i" \
			-seed "$i" "${client_flags[@]}"
		clients+=("$started")
	done
	for i in 1 2 3 4; do finish "$name-client-$i" "${clients[$((i - 1))]}"; done
	for e in 0 1; do finish "$name-edge-$e" "${edges[$e]}"; done
	finish "$name-root" "$root"
	expect "$name-root" "^round 1: 2 shards, sampled 4, responded 4"
	expect "$name-root" "session complete: 2 edges, 2 rounds"
	cat "$work"/$name-client-*.log >"$work/$name-clients.log"
	expect "$name-clients" "final model received" 4
}
hier hier 2
hier hier-masked 5 -secagg
expect hier-masked-clients "masked updates" 4

# 3. Refused before listening.
refused() {
	local name=$1 want=$2 status=0
	shift 2
	timeout 30 "$bin/flserver" -addr "$(addr 9)" "$@" >"$work/$name.log" 2>&1 || status=$?
	case $status in
	0 | 124) fail "$name: flserver $* exited with status $status, want a refusal" ;;
	esac
	[ -z "$want" ] || [ "$status" -eq "$want" ] || fail "$name: status $status, want $want"
	! grep -q listening "$work/$name.log" || fail "$name: flserver listened before refusing"
}
refused robust-secagg "" -secagg -aggregation median
refused async-secagg "" -async -secagg
refused mask-degree 2 -mask-degree -1
refused secagg-scale 2 -secagg -secagg-scale 60
refused edge-async 2 -upstream "$(addr 8)" -async
refused edge-secagg 2 -upstream "$(addr 8)" -secagg
refused root-sampling 2 -edges 2 -sample-fraction 0.5

echo "smoke-tcp: flat + recovery, plain and masked hierarchy and seven refusals passed"
