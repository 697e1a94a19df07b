#!/usr/bin/env bash
# Recovery smoke test: builds semitri-serve, ingests a generated workload
# with the write-ahead log enabled, kills the server with SIGKILL before any
# checkpoint has run (no cleanup, no final checkpoint — the crash case, so
# recovery is pure WAL-tail replay), restarts it from the data directory
# alone, and asserts the recovered server reports exactly the pre-kill
# record/episode/structured counts and answers a query byte-for-byte
# identically. CI runs this as the recovery-smoke job; `make recovery-smoke`
# runs it locally.
set -euo pipefail
cd "$(dirname "$0")/.."

addr="127.0.0.1:${SEMITRI_RECOVERY_PORT:-18090}"
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

"$tmp/semitri-gen" -kind people -users 2 -days 1 -pois 3000 -out "$tmp/people.csv"

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

# First run: ingest with the WAL on. -wait means the server only listens
# once ingestion finished and the stream closed — and a closed stream is a
# durability boundary (the WAL is synced), so everything we observe below
# is on disk before the kill.
"$tmp/semitri-serve" -addr "$addr" -in "$tmp/people.csv" -pois 3000 \
	-data-dir "$tmp/data" -wait -progress 0 &
server_pid=$!
wait_healthy
before_counts=$(curl -fsS "http://$addr/healthz")
before_answer=$(curl -fsS "http://$addr$query")

records=$(printf '%s' "$before_counts" | grep -o '"records": *[0-9]*' | grep -o '[0-9]*')
if [ -z "$records" ] || [ "$records" -eq 0 ]; then
	echo "FAIL: server reports no records before the kill: $before_counts" >&2
	exit 1
fi
echo "pre-kill: $records records ingested"

# The crash: SIGKILL, no shutdown handler, no final checkpoint. Recovery
# must come from the log alone.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

# Restart from the data directory alone (no -in: a recovered non-empty
# store is served as is, nothing is re-ingested).
"$tmp/semitri-serve" -addr "$addr" -data-dir "$tmp/data" -wait -progress 0 &
server_pid=$!
wait_healthy
after_counts=$(curl -fsS "http://$addr/healthz")
after_answer=$(curl -fsS "http://$addr$query")

if [ "$before_counts" != "$after_counts" ]; then
	echo "FAIL: store counts changed across kill -9 + recovery" >&2
	echo "  before: $before_counts" >&2
	echo "  after:  $after_counts" >&2
	exit 1
fi
echo "ok: record/trajectory/episode/structured counts identical after recovery"

if [ "$before_answer" != "$after_answer" ]; then
	echo "FAIL: query answer changed across kill -9 + recovery" >&2
	echo "  before: $before_answer" >&2
	echo "  after:  $after_answer" >&2
	exit 1
fi
echo "ok: query answer byte-identical after recovery ($query)"

echo "recovery smoke passed"
