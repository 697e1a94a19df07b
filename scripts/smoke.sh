#!/usr/bin/env bash
# End-to-end smoke tests of semitri-serve over HTTP, one leg per subsystem:
#
#   serve      ingest a small generated workload, then probe every endpoint
#              (HTTP 200 and a non-empty JSON body holding the key the
#              endpoint is defined by), /metrics, /debug/pprof/, relational
#              statements and the 400 answers to malformed queries.
#   recovery   ingest with the write-ahead log on, kill -9 before any
#              checkpoint (pure WAL-tail replay), restart from the data dir
#              alone and assert identical counts and a byte-identical answer.
#   coldstore  the same crash and restart under a tight GOMEMLIMIT with a
#              200ms checkpoint interval, so the heap tail is frozen into
#              binary segments and the restart reads them.
#   subscribe  throttled ingestion watched by a geofence standing query and
#              the metrics stream over SSE: well-formed frames, drop-free
#              delivery, and the folded match count equals a post-hoc
#              /query/episodes answer.
#
# Usage: scripts/smoke.sh [serve|recovery|coldstore|subscribe]...
# With no arguments every leg runs, in that order. `make smoke` runs them
# all, `make smoke LEG=recovery` one. The server listens on
# 127.0.0.1:$SEMITRI_SMOKE_PORT (default 18080).
set -euo pipefail
cd "$(dirname "$0")/.."

legs=("$@")
[ ${#legs[@]} -gt 0 ] || legs=(serve recovery coldstore subscribe)
for leg in "${legs[@]}"; do
	case $leg in
	serve | recovery | coldstore | subscribe) ;;
	*) echo "unknown leg $leg (want serve, recovery, coldstore or subscribe)" >&2; exit 2 ;;
	esac
done

addr="127.0.0.1:${SEMITRI_SMOKE_PORT:-18080}"
tmp=$(mktemp -d)
server_pid=""
sub_pid=""
stream_pid=""
cleanup() {
	local status=$?
	for pid in "$sub_pid" "$stream_pid"; do
		[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	done
	# SIGKILL, not SIGTERM: a graceful shutdown would start a final
	# checkpoint into a data dir this trap is about to delete.
	[ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
	if [ "$status" -ne 0 ] && [ -s "$tmp/server.log" ]; then
		echo "--- server log (last 40 lines)" >&2
		tail -n 40 "$tmp/server.log" >&2
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/semitri-gen" ./cmd/semitri-gen
go build -o "$tmp/semitri-serve" ./cmd/semitri-serve

# gen USERS DAYS writes a generated people workload to $tmp/people.csv.
gen() {
	"$tmp/semitri-gen" -kind people -users "$1" -days "$2" -pois 3000 -out "$tmp/people.csv"
}

# start FLAGS... launches semitri-serve on $addr in the background, its
# output in $tmp/server.log.
start() {
	"$tmp/semitri-serve" -addr "$addr" -progress 0 "$@" >"$tmp/server.log" 2>&1 &
	server_pid=$!
}

# crash kills the server with SIGKILL: no shutdown handler, no final
# checkpoint.
crash() {
	kill -9 "$server_pid"
	wait "$server_pid" 2>/dev/null || true
	server_pid=""
}

wait_healthy() {
	for _ in $(seq 1 300); do
		if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
			return 0
		fi
		kill -0 "$server_pid" 2>/dev/null || { echo "server exited early" >&2; exit 1; }
		sleep 0.1
	done
	echo "server never became healthy" >&2
	exit 1
}

# expect LABEL BODY KEY fails unless BODY is non-empty and holds "KEY".
expect() {
	if [ -z "$2" ]; then
		echo "FAIL $1: empty body" >&2
		exit 1
	fi
	if ! printf '%s' "$2" | grep -q "\"$3\""; then
		echo "FAIL $1: body lacks \"$3\": $2" >&2
		exit 1
	fi
	echo "ok GET $1"
}

# probe PATH KEY: GET PATH answers 200 with a body holding "KEY".
probe() {
	local body
	body=$(curl -fsS "http://$addr$1")
	expect "$1" "$body" "$2"
}

# probe_rel STATEMENT KEY: the relational endpoint answers STATEMENT with a
# body holding "KEY".
probe_rel() {
	local body
	body=$(curl -fsS -G --data-urlencode "q=$1" "http://$addr/query/relational")
	expect "/query/relational [$1]" "$body" "$2"
}

# bad_statement PATH: a malformed statement answers 400 with a structured
# {"error": ...} body, not 200, a crash or a hung stream.
bad_statement() {
	local bad status body
	bad=$(curl -s -G --data-urlencode 'q=stops join stops on gravity' \
		-w '\n%{http_code}' "http://$addr$1")
	status=${bad##*$'\n'}
	body=${bad%$'\n'*}
	if [ "$status" != "400" ] || ! printf '%s' "$body" | grep -q '"error"'; then
		echo "FAIL bad statement on $1: status $status, want 400 with an error body: $body" >&2
		exit 1
	fi
	echo "ok GET $1 [bad statement] -> 400 with error body"
}

leg_serve() {
	gen 2 1
	# -wait: only start listening once ingestion finished, so every probe
	# sees the fully annotated store. -pprof + -query-parallelism cover the
	# profiling endpoints and the parallel executor in the same pass.
	start -in "$tmp/people.csv" -pois 3000 -wait -pprof -query-parallelism 4
	wait_healthy

	probe "/healthz" "status"
	probe "/query/episodes?kind=stop&limit=3" "matches"
	probe "/query/episodes?annkey=poi_category&annvalue=item%20sale" "plan"
	probe "/query/episodes?minx=0&miny=0&maxx=10000&maxy=10000&kind=stop" "matches"
	probe "/query/episodes?kind=stop&limit=3&trace=1" "trace"
	probe "/query/trajectories" "trajectories"
	probe "/query/objects" "objects"
	probe "/stats" "index"
	probe "/stats" "IndexBytes"
	probe "/stats" "metrics"
	probe "/debug/queries" "queries"

	# /metrics: Prometheus text exposition — non-empty, well-formed (every
	# non-comment line is "name value"), and the key families of each
	# subsystem present, with the ingest counter moved by the smoke ingest.
	local metrics
	metrics=$(curl -fsS "http://$addr/metrics")
	if [ -z "$metrics" ]; then
		echo "FAIL /metrics: empty body" >&2
		exit 1
	fi
	for family in semitri_ingest_records_total semitri_ingest_stage_ns \
		semitri_store_mutations_total semitri_query_total \
		semitri_wal_frames_total semitri_segment_freezes_total go_goroutines; do
		if ! printf '%s\n' "$metrics" | grep -q "^# TYPE $family "; then
			echo "FAIL /metrics: family $family missing" >&2
			exit 1
		fi
	done
	if ! printf '%s\n' "$metrics" | grep -q '^semitri_ingest_records_total [1-9]'; then
		echo "FAIL /metrics: ingest counter did not move" >&2
		exit 1
	fi
	if printf '%s\n' "$metrics" | grep -v '^#' | grep -v '^$' | awk 'NF != 2 { exit 1 }'; then
		echo "ok GET /metrics"
	else
		echo "FAIL /metrics: malformed sample line" >&2
		exit 1
	fi

	# -pprof must expose the standard profiling index (plain HTML, not JSON
	# — just assert it answers 200 with a recognisable body).
	local pprof_body
	pprof_body=$(curl -fsS "http://$addr/debug/pprof/")
	if ! printf '%s' "$pprof_body" | grep -qi "profile"; then
		echo "FAIL /debug/pprof/: unexpected body" >&2
		exit 1
	fi
	echo "ok GET /debug/pprof/"

	# The relational endpoint: a declarative statement must come back with
	# its plan echoed, and a join+aggregate statement must return the group
	# shape.
	probe_rel 'stops where ann.poi_category = "item sale" limit 5' "matches"
	probe_rel 'stops join stops on distance <= 200 and within 1h and distinct objects' "pairs"
	probe_rel 'stops join stops on distance <= 200 and within 1h and distinct objects group by object distinct objects top 5' "groups"

	# A malformed query must answer 400 with an error body, not 200 or a
	# crash.
	local status
	status=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/query/episodes?kind=hover")
	if [ "$status" != "400" ]; then
		echo "FAIL bad query: status $status, want 400" >&2
		exit 1
	fi
	echo "ok GET /query/episodes?kind=hover -> 400"
	bad_statement /query/relational
}

# crash_restart LEG ingests a generated workload with the WAL on, kills the
# server with SIGKILL, restarts it from the data directory alone (no -in: a
# recovered non-empty store is served as is, nothing is re-ingested) and
# asserts the recovered server reports exactly the pre-kill
# record/trajectory/episode/structured counts and answers a query and the
# trajectory summaries byte-for-byte identically (each summary's records,
# start and end resolve through its object's record run, cold in the
# coldstore leg). The recovery leg crashes before any checkpoint
# (the default interval is a minute), so recovery is pure WAL-tail replay.
# The coldstore leg checkpoints every 200ms under a tight GOMEMLIMIT (which
# keeps the GC honest about the cold tier living off-heap), so recovery
# reads frozen segments plus the log tail.
crash_restart() {
	local leg=$1 data="$tmp/$1-data" flags=() recovered="recovery"
	if [ "$leg" = coldstore ]; then
		gen 3 2
		local -x GOMEMLIMIT=128MiB
		flags=(-checkpoint-interval 200ms)
		recovered="segment recovery"
	else
		gen 2 1
	fi
	local query="/query/episodes?annkey=poi_category&annvalue=item%20sale&kind=stop"

	# -wait means the server only listens once ingestion finished and the
	# stream closed — and a closed stream is a durability boundary (the WAL
	# is synced), so everything observed below is on disk before the kill.
	start -in "$tmp/people.csv" -pois 3000 -data-dir "$data" "${flags[@]}" -wait
	wait_healthy
	if [ "$leg" = coldstore ]; then
		# Give the auto-checkpoint loop time to freeze the final tail so the
		# restart genuinely reads segments.
		sleep 2
	fi
	local before_counts before_answer before_trajs records
	before_counts=$(curl -fsS "http://$addr/healthz")
	before_answer=$(curl -fsS "http://$addr$query")
	before_trajs=$(curl -fsS "http://$addr/query/trajectories")
	records=$(printf '%s' "$before_counts" | grep -o '"records": *[0-9]*' | grep -o '[0-9]*')
	if [ -z "$records" ] || [ "$records" -eq 0 ]; then
		echo "FAIL: server reports no records before the kill: $before_counts" >&2
		exit 1
	fi
	if [ "$leg" = coldstore ]; then
		local segments
		segments=$(ls "$data"/seg-*.seg 2>/dev/null | wc -l)
		if [ "$segments" -eq 0 ]; then
			echo "FAIL: no segment files were frozen before the kill" >&2
			ls -la "$data" >&2
			exit 1
		fi
		echo "pre-kill: $records records ingested, $segments cold segment(s) frozen"
	else
		echo "pre-kill: $records records ingested"
	fi

	crash
	start -data-dir "$data" -wait
	wait_healthy
	local after_counts after_answer after_trajs
	after_counts=$(curl -fsS "http://$addr/healthz")
	after_answer=$(curl -fsS "http://$addr$query")
	after_trajs=$(curl -fsS "http://$addr/query/trajectories")

	if [ "$before_counts" != "$after_counts" ]; then
		echo "FAIL: store counts changed across kill -9 + $recovered" >&2
		echo "  before: $before_counts" >&2
		echo "  after:  $after_counts" >&2
		exit 1
	fi
	echo "ok: record/trajectory/episode/structured counts identical after $recovered"

	if [ "$before_answer" != "$after_answer" ]; then
		echo "FAIL: query answer changed across kill -9 + $recovered" >&2
		echo "  before: $before_answer" >&2
		echo "  after:  $after_answer" >&2
		exit 1
	fi
	echo "ok: query answer byte-identical after $recovered ($query)"

	if [ "$before_trajs" != "$after_trajs" ] || ! printf '%s' "$after_trajs" | grep -q '"records"'; then
		echo "FAIL: trajectory summaries changed or empty across kill -9 + $recovered" >&2
		echo "  before: $before_trajs" >&2
		echo "  after:  $after_trajs" >&2
		exit 1
	fi
	echo "ok: trajectory summaries byte-identical after $recovered (/query/trajectories)"
}

leg_recovery() { crash_restart recovery; }
leg_coldstore() { crash_restart coldstore; }

leg_subscribe() {
	gen 1 1
	# -ingest-delay throttles the producer so the subscriptions below are
	# standing before the first stop episode closes (stop detection needs
	# many records, each now costing 2ms): a standing query only sees events
	# from registration on, and the post-hoc comparison needs all of them.
	start -in "$tmp/people.csv" -pois 3000 -ingest-delay 2ms -sse-heartbeat 500ms
	wait_healthy

	# Geofence standing query over the whole city: its folded match count
	# must equal the engine's stop count inside the same window once
	# quiescent. The big ?buffer keeps delivery drop-free, so the fold is
	# exact.
	curl -fsSN -G --data-urlencode 'q=stops where window(0, 0, 10000, 10000)' \
		"http://$addr/subscribe?buffer=65536" >"$tmp/sub.sse" &
	sub_pid=$!
	curl -fsSN "http://$addr/metrics/stream" >"$tmp/stream.sse" &
	stream_pid=$!

	# Both subscriptions must be standing before episodes start closing.
	sleep 0.5
	if ! grep -q '^event: subscribed' "$tmp/sub.sse"; then
		echo "FAIL /subscribe: no subscribed frame" >&2
		cat "$tmp/sub.sse" >&2
		exit 1
	fi
	echo "ok GET /subscribe [subscribed frame]"

	for _ in $(seq 1 600); do
		if grep -q "ingestion complete" "$tmp/server.log"; then
			break
		fi
		kill -0 "$server_pid" 2>/dev/null || { echo "server exited early" >&2; exit 1; }
		sleep 0.2
	done
	if ! grep -q "ingestion complete" "$tmp/server.log"; then
		echo "FAIL: ingestion did not finish in time" >&2
		exit 1
	fi
	# Let the dispatcher drain and a heartbeat carry the final accounting.
	sleep 2
	kill "$sub_pid" "$stream_pid" 2>/dev/null || true
	wait "$sub_pid" "$stream_pid" 2>/dev/null || true
	sub_pid=""
	stream_pid=""

	# Well-formedness: every frame is an "event:" line paired with a "data:"
	# JSON line (the SSE contract the dashboard consumes).
	local events datas
	events=$(grep -c '^event: ' "$tmp/sub.sse")
	datas=$(grep -c '^data: {' "$tmp/sub.sse")
	if [ "$events" -ne "$datas" ] || [ "$events" -lt 2 ]; then
		echo "FAIL /subscribe: $events event lines vs $datas data lines" >&2
		exit 1
	fi
	echo "ok GET /subscribe [$events well-formed frames]"

	# Drop-free delivery: the last heartbeat's accounting must report zero
	# drops, otherwise the fold below would undercount by construction.
	local last_hb
	last_hb=$(grep -A1 '^event: heartbeat' "$tmp/sub.sse" | grep '^data: ' | tail -1)
	if [ -z "$last_hb" ]; then
		echo "FAIL /subscribe: no heartbeat frame" >&2
		exit 1
	fi
	if ! printf '%s' "$last_hb" | grep -q '"drops":0'; then
		echo "FAIL /subscribe: heartbeat reports drops: $last_hb" >&2
		exit 1
	fi

	# Fold the stream: net matches (match minus unmatch) must equal the
	# post-hoc engine answer for the same predicate over the now-quiescent
	# store. This is the live/engine parity property, end to end over HTTP.
	local matches unmatches net engine
	matches=$(grep -c '^event: match' "$tmp/sub.sse" || true)
	unmatches=$(grep -c '^event: unmatch' "$tmp/sub.sse" || true)
	net=$((matches - unmatches))
	engine=$(curl -fsS "http://$addr/query/episodes?kind=stop&minx=0&miny=0&maxx=10000&maxy=10000" |
		grep -o '"count": *[0-9]*' | head -1 | grep -o '[0-9]*')
	if [ -z "$engine" ]; then
		echo "FAIL /query/episodes: no count in answer" >&2
		exit 1
	fi
	if [ "$net" -ne "$engine" ]; then
		echo "FAIL parity: stream folded to $net stops ($matches match - $unmatches unmatch), engine says $engine" >&2
		exit 1
	fi
	if [ "$net" -lt 1 ]; then
		echo "FAIL parity: workload produced no stops to stream" >&2
		exit 1
	fi
	echo "ok live/engine parity: $net stops ($matches match - $unmatches unmatch)"

	# The metrics stream: at least two tick frames (the connect-time sample
	# plus the sampler), each carrying the live subsystem's own gauges — the
	# bus instruments itself.
	local ticks
	ticks=$(grep -c '^event: tick' "$tmp/stream.sse")
	if [ "$ticks" -lt 2 ]; then
		echo "FAIL /metrics/stream: only $ticks tick frames" >&2
		exit 1
	fi
	if ! grep -q 'semitri_live_standing_queries' "$tmp/stream.sse"; then
		echo "FAIL /metrics/stream: ticks lack the live subsystem gauges" >&2
		exit 1
	fi
	if ! grep -q 'semitri_ingest_records_total' "$tmp/stream.sse"; then
		echo "FAIL /metrics/stream: ticks lack the ingest counters" >&2
		exit 1
	fi
	echo "ok GET /metrics/stream [$ticks ticks]"

	# The history endpoint answers for a metric the stream carried.
	local history
	history=$(curl -fsS "http://$addr/metrics/history?name=semitri_ingest_records_total&window=10m")
	if ! printf '%s' "$history" | grep -q '"samples"'; then
		echo "FAIL /metrics/history: $history" >&2
		exit 1
	fi
	echo "ok GET /metrics/history"

	# The dashboard serves and is self-contained.
	local dash
	dash=$(curl -fsS "http://$addr/debug/dash")
	if ! printf '%s' "$dash" | grep -q 'EventSource'; then
		echo "FAIL /debug/dash: unexpected body" >&2
		exit 1
	fi
	echo "ok GET /debug/dash"
	bad_statement /subscribe
}

for leg in "${legs[@]}"; do
	echo "== $leg"
	"leg_$leg"
	crash
	echo "$leg smoke passed"
done
