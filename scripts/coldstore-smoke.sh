#!/usr/bin/env bash
# Cold-store smoke test: exercises the tiered storage engine end to end.
# Ingests a generated workload under a tight GOMEMLIMIT with an aggressive
# checkpoint interval (so the heap tail is forcibly frozen into binary
# segments while ingestion runs), kills the server with SIGKILL, restarts it
# from segments + WAL alone, and asserts the recovered server reports exactly
# the pre-kill counts and answers a query byte-for-byte identically. CI runs this as the coldstore-smoke job;
# `make coldstore-smoke` runs it locally.
set -euo pipefail
cd "$(dirname "$0")/.."

addr="127.0.0.1:${SEMITRI_COLDSTORE_PORT:-18091}"
tmp=$(mktemp -d)
server_pid=""
cleanup() {
	# SIGKILL, not SIGTERM: a graceful shutdown would start a final
	# checkpoint into the data dir this trap is about to delete.
	[ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/semitri-gen" ./cmd/semitri-gen
go build -o "$tmp/semitri-serve" ./cmd/semitri-serve

"$tmp/semitri-gen" -kind people -users 3 -days 2 -pois 3000 -out "$tmp/people.csv"

wait_healthy() {
	for _ in $(seq 1 150); do
		if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
			return 0
		fi
		kill -0 "$server_pid" 2>/dev/null || { echo "server exited early" >&2; exit 1; }
		sleep 0.2
	done
	echo "server never became healthy" >&2
	exit 1
}

query="/query/episodes?annkey=poi_category&annvalue=item%20sale&kind=stop"

# First run: a 200ms checkpoint interval so freezes fire repeatedly during
# ingestion, and a tight GOMEMLIMIT to keep the GC honest about the cold tier
# living off-heap. -wait means the server only listens once ingestion
# finished; a 2s sleep after gives the auto-checkpoint loop time to freeze
# the final tail so the restart genuinely reads segments.
GOMEMLIMIT=128MiB "$tmp/semitri-serve" -addr "$addr" -in "$tmp/people.csv" -pois 3000 \
	-data-dir "$tmp/data" -checkpoint-interval 200ms -wait -progress 0 &
server_pid=$!
wait_healthy
sleep 2
before_counts=$(curl -fsS "http://$addr/healthz")
before_answer=$(curl -fsS "http://$addr$query")

records=$(printf '%s' "$before_counts" | grep -o '"records": *[0-9]*' | grep -o '[0-9]*')
if [ -z "$records" ] || [ "$records" -eq 0 ]; then
	echo "FAIL: server reports no records before the kill: $before_counts" >&2
	exit 1
fi
segments=$(ls "$tmp/data"/seg-*.seg 2>/dev/null | wc -l)
if [ "$segments" -eq 0 ]; then
	echo "FAIL: no segment files were frozen before the kill" >&2
	ls -la "$tmp/data" >&2
	exit 1
fi
echo "pre-kill: $records records ingested, $segments cold segment(s) frozen"

# The crash: SIGKILL, no shutdown handler, no final checkpoint. Recovery
# must come from the segments plus the WAL tail alone.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

# Restart from the data directory alone (no -in: a recovered non-empty
# store is served as is, nothing is re-ingested).
GOMEMLIMIT=128MiB "$tmp/semitri-serve" -addr "$addr" -data-dir "$tmp/data" \
	-wait -progress 0 &
server_pid=$!
wait_healthy
after_counts=$(curl -fsS "http://$addr/healthz")
after_answer=$(curl -fsS "http://$addr$query")

if [ "$before_counts" != "$after_counts" ]; then
	echo "FAIL: store counts changed across kill -9 + segment recovery" >&2
	echo "  before: $before_counts" >&2
	echo "  after:  $after_counts" >&2
	exit 1
fi
echo "ok: record/trajectory/episode/structured counts identical after segment recovery"

if [ "$before_answer" != "$after_answer" ]; then
	echo "FAIL: query answer changed across kill -9 + segment recovery" >&2
	echo "  before: $before_answer" >&2
	echo "  after:  $after_answer" >&2
	exit 1
fi
echo "ok: query answer byte-identical after segment recovery ($query)"

echo "coldstore smoke passed"
