#!/usr/bin/env bash
# Tier-1 CI gate: build, vet, race-detector tests, fuzz seed corpora.
#
#   scripts/ci.sh          # full gate (race tests include the e2e pipeline)
#   scripts/ci.sh -short   # quick gate: skips the expensive e2e runs
#
# Extra arguments are passed through to `go test`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== go test -race =="
# Package test binaries run concurrently and share the CPU, so the
# slowest package's wall clock grows with the whole suite; the default
# per-binary 10m timeout is too tight for the root package under -race
# on shared hardware.
go test -race -timeout 30m "$@" ./...

# Shuffled run: reconstruction is contractually deterministic (see
# determinism_test.go), so no test may depend on the order its siblings
# ran in. -short keeps the shuffled pass cheap; the full-order run above
# already covered the expensive paths.
echo "== go test -shuffle=on =="
go test -shuffle=on -short ./...

# Fuzz targets replay their committed seed corpora as part of go test; run
# them by name here so a corpus regression is reported explicitly.
echo "== fuzz seed corpora =="
go test -run 'Fuzz' ./internal/cloud/server/ ./internal/cloud/mapserve/

# Crash-recovery and retry tests again under the race detector, by name,
# so a regression in the durability layer is reported explicitly rather
# than buried in the full-suite run above.
echo "== fault injection (race) =="
go test -race -run 'WAL|Torn|Flaky|Retry|Backoff|DeadLetter|Checkpoint|Journal|Resume|Recover|Processor' \
	./internal/cloud/... ./cmd/crowdmapd/

# Scheduler, admission-control, and drain tests under the race detector,
# by name: these are the concurrency-heavy paths where a data race is
# most likely to regress silently.
echo "== scheduler/admission/drain (race) =="
go test -race -run 'Sched|Admission|Drain|Overlapping|Serialization|Transient|Quarantine' \
	./internal/cloud/sched/ ./internal/cloud/server/ ./cmd/crowdmapd/

# Pooled-buffer and quantized-index tests under the race detector, by
# name: sync.Pool reuse and the shared immutable index are exactly where
# a concurrency bug in the PR 6 hot paths would hide.
echo "== pooled buffers / quantized index (race) =="
go test -race -run 'Pooled|Quant|Block|Flat|Allocs|Integral' \
	./internal/img/ ./internal/keyframe/ ./internal/vision/surf/ ./internal/vision/wavelet/

# Shutdown-drain smoke test: boot the real daemon with a durable data
# dir, upload one capture, SIGTERM it mid-operation, and require a clean
# exit that left durable state behind. This exercises the full drain
# path (admission refusal -> scheduler drain -> WAL compaction) that
# unit tests only cover piecewise.
echo "== shutdown-drain smoke test =="
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/crowdmapd" ./cmd/crowdmapd
go run ./cmd/datagen -building Lab2 -walks 1 -visits 0 -users 1 -out "$smoke/caps"
"$smoke/crowdmapd" -addr 127.0.0.1:18742 -data-dir "$smoke/data" \
	-interval 2s -hypotheses 200 -drain-timeout 20s >"$smoke/daemon.log" 2>&1 &
daemon=$!
for i in $(seq 1 50); do
	curl -fsS -o /dev/null http://127.0.0.1:18742/healthz 2>/dev/null && break
	sleep 0.2
	if [ "$i" -eq 50 ]; then
		echo "smoke: daemon never became healthy"; cat "$smoke/daemon.log"; exit 1
	fi
done
cap=$(ls "$smoke"/caps/*.zip | head -n 1)
curl -fsS -o /dev/null --data-binary @"$cap" \
	"http://127.0.0.1:18742/api/v1/captures/smoke-cap/chunks?index=0&total=1"
sleep 1 # let a scan cycle pick the capture up before the drain
kill -TERM "$daemon"
for i in $(seq 1 150); do
	kill -0 "$daemon" 2>/dev/null || break
	sleep 0.2
	if [ "$i" -eq 150 ]; then
		echo "smoke: daemon did not exit within 30s of SIGTERM"
		cat "$smoke/daemon.log"; kill -9 "$daemon"; exit 1
	fi
done
wait "$daemon" || { echo "smoke: daemon exited nonzero"; cat "$smoke/daemon.log"; exit 1; }
if ! ls "$smoke"/data/snapshot.json "$smoke"/data/wal-*.seg >/dev/null 2>&1; then
	echo "smoke: no durable state in data dir after drain"
	ls -la "$smoke/data" || true; cat "$smoke/daemon.log"; exit 1
fi
grep -q 'shutdown complete' "$smoke/daemon.log" || {
	echo "smoke: daemon log missing 'shutdown complete'"; cat "$smoke/daemon.log"; exit 1; }
echo "smoke: clean drain, durable state present"

# Malformed-capture smoke test: the daemon must refuse a corrupt archive
# with 422 at upload time, stay healthy, and still reconstruct subsequent
# good uploads — the end-to-end check that one hostile client cannot
# wedge or crash ingestion.
echo "== malformed-capture smoke test =="
go run ./cmd/datagen -building Lab2 -walks 3 -visits 0 -users 1 -out "$smoke/goodcaps"
printf 'PK\x03\x04 this is not a capture archive' > "$smoke/corrupt.zip"
"$smoke/crowdmapd" -addr 127.0.0.1:18743 -interval 1s -hypotheses 200 \
	>"$smoke/daemon2.log" 2>&1 &
daemon2=$!
trap 'kill -9 "$daemon2" 2>/dev/null; rm -rf "$smoke"' EXIT
for i in $(seq 1 50); do
	curl -fsS -o /dev/null http://127.0.0.1:18743/healthz 2>/dev/null && break
	sleep 0.2
	if [ "$i" -eq 50 ]; then
		echo "smoke2: daemon never became healthy"; cat "$smoke/daemon2.log"; exit 1
	fi
done
status=$(curl -sS -o "$smoke/reject.json" -w '%{http_code}' --data-binary @"$smoke/corrupt.zip" \
	"http://127.0.0.1:18743/api/v1/captures/corrupt/chunks?index=0&total=1")
if [ "$status" != "422" ]; then
	echo "smoke2: corrupt upload got HTTP $status, want 422"
	cat "$smoke/reject.json"; cat "$smoke/daemon2.log"; exit 1
fi
curl -fsS -o /dev/null http://127.0.0.1:18743/healthz || {
	echo "smoke2: daemon unhealthy after corrupt upload"; cat "$smoke/daemon2.log"; exit 1; }
for cap in "$smoke"/goodcaps/*.zip; do
	id=$(basename "$cap" .zip)
	curl -fsS -o /dev/null --data-binary @"$cap" \
		"http://127.0.0.1:18743/api/v1/captures/$id/chunks?index=0&total=1"
done
# The scan picks the corpus up within -interval; poll for the plan.
plan_ok=0
for i in $(seq 1 120); do
	if curl -fsS -o /dev/null http://127.0.0.1:18743/api/v1/plans/Lab2 2>/dev/null; then
		plan_ok=1; break
	fi
	sleep 1
done
if [ "$plan_ok" -ne 1 ]; then
	echo "smoke2: no plan reconstructed from good uploads after corrupt one"
	cat "$smoke/daemon2.log"; exit 1
fi
kill -TERM "$daemon2"
wait "$daemon2" || { echo "smoke2: daemon exited nonzero"; cat "$smoke/daemon2.log"; exit 1; }
trap 'rm -rf "$smoke"' EXIT
echo "smoke2: 422 for corrupt archive, daemon healthy, good uploads reconstructed"

# Delta-reconstruction smoke test: boot the daemon as shipped (every
# building job runs the delta path), build a plan from three captures,
# then upload one more and require that the incremental run reuses every
# previously extracted track — the end-to-end check that an upload to a
# reconstructed building costs O(delta), not a full re-run. Reuse is
# asserted through the reconstruct.delta.* counters on /metrics.
echo "== delta reconstruction smoke test =="
go run ./cmd/datagen -building Lab2 -walks 4 -visits 0 -users 1 -out "$smoke/deltacaps"
"$smoke/crowdmapd" -addr 127.0.0.1:18744 -interval 1s -hypotheses 200 \
	>"$smoke/daemon3.log" 2>&1 &
daemon3=$!
trap 'kill -9 "$daemon3" 2>/dev/null; rm -rf "$smoke"' EXIT
for i in $(seq 1 50); do
	curl -fsS -o /dev/null http://127.0.0.1:18744/healthz 2>/dev/null && break
	sleep 0.2
	if [ "$i" -eq 50 ]; then
		echo "smoke3: daemon never became healthy"; cat "$smoke/daemon3.log"; exit 1
	fi
done
caps=$("ls" "$smoke"/deltacaps/*.zip)
first=$(echo "$caps" | head -n 3)
last=$(echo "$caps" | tail -n +4 | head -n 1)
for cap in $first; do
	id=$(basename "$cap" .zip)
	curl -fsS -o /dev/null --data-binary @"$cap" \
		"http://127.0.0.1:18744/api/v1/captures/$id/chunks?index=0&total=1"
done
plan_ok=0
for i in $(seq 1 120); do
	if curl -fsS -o /dev/null http://127.0.0.1:18744/api/v1/plans/Lab2 2>/dev/null; then
		plan_ok=1; break
	fi
	sleep 1
done
if [ "$plan_ok" -ne 1 ]; then
	echo "smoke3: no plan from the initial corpus"; cat "$smoke/daemon3.log"; exit 1
fi
metric() {
	curl -fsS http://127.0.0.1:18744/metrics |
		grep -o "\"$1\": *[0-9]*" | head -n 1 | grep -o '[0-9]*$'
}
extracted_before=$(metric reconstruct.delta.tracks.extracted)
id=$(basename "$last" .zip)
curl -fsS -o /dev/null --data-binary @"$last" \
	"http://127.0.0.1:18744/api/v1/captures/$id/chunks?index=0&total=1"
delta_ok=0
for i in $(seq 1 120); do
	runs=$(metric reconstruct.delta.runs)
	if [ "${runs:-0}" -ge 2 ]; then
		delta_ok=1; break
	fi
	sleep 1
done
if [ "$delta_ok" -ne 1 ]; then
	echo "smoke3: second (incremental) reconstruction never ran"
	cat "$smoke/daemon3.log"; exit 1
fi
reused=$(metric reconstruct.delta.tracks.reused)
extracted=$(metric reconstruct.delta.tracks.extracted)
if [ "${reused:-0}" -lt 3 ]; then
	echo "smoke3: tracks.reused=$reused, want >= 3 (delta ran as a full rebuild)"
	cat "$smoke/daemon3.log"; exit 1
fi
if [ "$((extracted - extracted_before))" -gt 1 ]; then
	echo "smoke3: incremental run extracted $((extracted - extracted_before)) tracks, want <= 1"
	cat "$smoke/daemon3.log"; exit 1
fi
curl -fsS -o /dev/null http://127.0.0.1:18744/api/v1/plans/Lab2 || {
	echo "smoke3: plan gone after incremental run"; cat "$smoke/daemon3.log"; exit 1; }
kill -TERM "$daemon3"
wait "$daemon3" || { echo "smoke3: daemon exited nonzero"; cat "$smoke/daemon3.log"; exit 1; }
trap 'rm -rf "$smoke"' EXIT
echo "smoke3: incremental run reused $reused tracks, extracted $((extracted - extracted_before))"

# IMU-only trajectory-mode smoke test: boot the daemon with -mode
# trajectory, upload frame-less IMU-only archives (datagen -imu-only is
# the corpus shape a video-less deployment produces), and require a plan
# reconstructed purely from dead-reckoned trajectories. Trajectory-mode
# coverage is asserted through the reconstruct.mode.* counters on
# /metrics — the end-to-end check that captures with no frames survive
# the upload gate, route through the trajectory path, and serve a plan.
echo "== IMU-only trajectory-mode smoke test =="
go run ./cmd/datagen -building Lab2 -walks 4 -visits 0 -users 1 -imu-only -out "$smoke/imucaps"
"$smoke/crowdmapd" -addr 127.0.0.1:18745 -interval 1s -hypotheses 200 \
	-mode trajectory -quality lenient >"$smoke/daemon4.log" 2>&1 &
daemon4=$!
trap 'kill -9 "$daemon4" 2>/dev/null; rm -rf "$smoke"' EXIT
for i in $(seq 1 50); do
	curl -fsS -o /dev/null http://127.0.0.1:18745/healthz 2>/dev/null && break
	sleep 0.2
	if [ "$i" -eq 50 ]; then
		echo "smoke4: daemon never became healthy"; cat "$smoke/daemon4.log"; exit 1
	fi
done
for cap in "$smoke"/imucaps/*.zip; do
	id=$(basename "$cap" .zip)
	curl -fsS -o /dev/null --data-binary @"$cap" \
		"http://127.0.0.1:18745/api/v1/captures/$id/chunks?index=0&total=1"
done
plan_ok=0
for i in $(seq 1 120); do
	if curl -fsS -o /dev/null http://127.0.0.1:18745/api/v1/plans/Lab2 2>/dev/null; then
		plan_ok=1; break
	fi
	sleep 1
done
if [ "$plan_ok" -ne 1 ]; then
	echo "smoke4: no plan reconstructed from IMU-only uploads"
	cat "$smoke/daemon4.log"; exit 1
fi
metric4() {
	curl -fsS http://127.0.0.1:18745/metrics |
		grep -o "\"$1\": *[0-9]*" | head -n 1 | grep -o '[0-9]*$'
}
mode_runs=$(metric4 reconstruct.mode.trajectory)
routed=$(metric4 reconstruct.mode.routed.trajectory)
if [ "${mode_runs:-0}" -lt 1 ] || [ "${routed:-0}" -lt 4 ]; then
	echo "smoke4: no trajectory-mode coverage (runs=${mode_runs:-0} routed=${routed:-0}, want >=1 / >=4)"
	cat "$smoke/daemon4.log"; exit 1
fi
kill -TERM "$daemon4"
wait "$daemon4" || { echo "smoke4: daemon exited nonzero"; cat "$smoke/daemon4.log"; exit 1; }
trap 'rm -rf "$smoke"' EXIT
echo "smoke4: trajectory-mode plan served ($routed IMU-only captures routed)"

# Corruption-repair smoke test: reconstruct a plan into a durable data
# dir, stop the daemon, flip one bit of the persisted plan document
# offline (scripts/chaoscorrupt.go writes the rot through the WAL), and
# restart with a tight scrub interval. The scrubber must detect and
# quarantine the corrupt document, the self-healing scan must rebuild it,
# and the plan must be served again — corrupt bytes never reach a client.
echo "== corruption-repair smoke test =="
go run ./cmd/datagen -building Lab2 -walks 3 -visits 0 -users 1 -out "$smoke/chaoscaps"
"$smoke/crowdmapd" -addr 127.0.0.1:18746 -data-dir "$smoke/chaosdata" \
	-interval 1s -hypotheses 200 -drain-timeout 20s >"$smoke/daemon5.log" 2>&1 &
daemon5=$!
trap 'kill -9 "$daemon5" 2>/dev/null; rm -rf "$smoke"' EXIT
for i in $(seq 1 50); do
	curl -fsS -o /dev/null http://127.0.0.1:18746/readyz 2>/dev/null && break
	sleep 0.2
	if [ "$i" -eq 50 ]; then
		echo "smoke5: daemon never became ready"; cat "$smoke/daemon5.log"; exit 1
	fi
done
for cap in "$smoke"/chaoscaps/*.zip; do
	id=$(basename "$cap" .zip)
	curl -fsS -o /dev/null --data-binary @"$cap" \
		"http://127.0.0.1:18746/api/v1/captures/$id/chunks?index=0&total=1"
done
plan_ok=0
for i in $(seq 1 120); do
	if curl -fsS -o /dev/null http://127.0.0.1:18746/api/v1/plans/Lab2 2>/dev/null; then
		plan_ok=1; break
	fi
	sleep 1
done
if [ "$plan_ok" -ne 1 ]; then
	echo "smoke5: no plan before the corruption"; cat "$smoke/daemon5.log"; exit 1
fi
kill -TERM "$daemon5"
wait "$daemon5" || { echo "smoke5: daemon exited nonzero"; cat "$smoke/daemon5.log"; exit 1; }
go run scripts/chaoscorrupt.go -data-dir "$smoke/chaosdata" -coll plans -key Lab2
"$smoke/crowdmapd" -addr 127.0.0.1:18746 -data-dir "$smoke/chaosdata" \
	-interval 1s -scrub-interval 1s -hypotheses 200 -drain-timeout 20s \
	>"$smoke/daemon5b.log" 2>&1 &
daemon5=$!
metric5() {
	curl -fsS http://127.0.0.1:18746/metrics |
		grep -o "\"$1\": *[0-9]*" | head -n 1 | grep -o '[0-9]*$'
}
repair_ok=0
for i in $(seq 1 120); do
	corrupt=$(metric5 scrub.corrupt 2>/dev/null || echo 0)
	repaired=$(metric5 integrity.repaired 2>/dev/null || echo 0)
	if [ "${corrupt:-0}" -ge 1 ] && [ "${repaired:-0}" -ge 1 ]; then
		repair_ok=1; break
	fi
	sleep 1
done
if [ "$repair_ok" -ne 1 ]; then
	echo "smoke5: corruption not detected+repaired (scrub.corrupt=${corrupt:-0} integrity.repaired=${repaired:-0})"
	cat "$smoke/daemon5b.log"; exit 1
fi
plan_ok=0
for i in $(seq 1 60); do
	if curl -fsS -o "$smoke/repaired_plan.svg" http://127.0.0.1:18746/api/v1/plans/Lab2 2>/dev/null; then
		plan_ok=1; break
	fi
	sleep 1
done
if [ "$plan_ok" -ne 1 ] || [ ! -s "$smoke/repaired_plan.svg" ]; then
	echo "smoke5: plan not served after repair"; cat "$smoke/daemon5b.log"; exit 1
fi
quarantined=$(metric5 integrity.quarantined)
kill -TERM "$daemon5"
wait "$daemon5" || { echo "smoke5: daemon exited nonzero"; cat "$smoke/daemon5b.log"; exit 1; }
trap 'rm -rf "$smoke"' EXIT
echo "smoke5: bit-flip detected (quarantined=${quarantined:-0}), plan repaired and served"

# Docs checks: every internal package must carry a package comment, and
# every intra-repo markdown link must point at a file that exists.
echo "== docs: package comments =="
go list -f '{{.Dir}} {{.Name}} {{if .Doc}}ok{{else}}MISSING{{end}}' ./internal/... |
	awk '$3 == "MISSING" { print "no package comment: " $1; bad = 1 }
	     END { exit bad }'

echo "== docs: markdown links =="
fail=0
for md in README.md docs/*.md; do
	base=$(dirname "$md")
	# Extract ](target) links; keep only relative file targets.
	for target in $(grep -o ']([^)]*)' "$md" | sed 's/^](//; s/)$//'); do
		case "$target" in
		http://*|https://*|\#*) continue ;;
		esac
		path="$base/${target%%#*}"
		if [ ! -e "$path" ]; then
			echo "$md: broken link -> $target"
			fail=1
		fi
	done
done
[ "$fail" -eq 0 ] || exit 1

# Route drift: docs/API.md must document exactly the HTTP routes the
# server registers. Both sides reduce to "METHOD /path" lines — route()
# registrations (plus the bare GET /metrics mux.Handle) on one side,
# API.md paths written as `METHOD `/path`` table rows or `### METHOD
# /path` headings on the other — so adding a route without documenting
# it, or documenting a route that does not exist, fails the gate.
echo "== docs: API.md route drift =="
routes_src=$(mktemp) && routes_doc=$(mktemp)
grep -oE '(route\("|mux\.Handle\(")(GET|POST|PUT|DELETE) [^"]*' \
	internal/cloud/server/server.go |
	sed -E 's/^(route|mux\.Handle)\("//' | sed -E 's/\{[a-z]+\}/{}/g' |
	sort -u >"$routes_src"
grep -oE '(GET|POST|PUT|DELETE) `?/[a-zA-Z0-9_{}./-]*' docs/API.md |
	tr -d '`' | sed -E 's/\{[a-z]+\}/{}/g' | sort -u >"$routes_doc"
if ! diff -u "$routes_src" "$routes_doc"; then
	echo "docs/API.md routes out of sync with server registrations (<- code, -> docs)"
	rm -f "$routes_src" "$routes_doc"
	exit 1
fi
nroutes=$(wc -l <"$routes_src")
rm -f "$routes_src" "$routes_doc"
echo "routes in sync: $nroutes documented"

# Benchmark ratchet (PR 6): re-run the named hot-path benchmarks and fail
# if any regresses more than the tolerance against the committed
# BENCH_pr6.json baseline, in ns/op or allocs/op. Knobs (see
# docs/OPERATIONS.md "Benchmarks"):
#   BENCHGATE_SKIP=1          skip the gate entirely (e.g. shared hardware)
#   BENCHGATE_TOLERANCE=0.25  widen the ratchet (fraction, default 0.10)
#   BENCHGATE_TIME=3s         more measurement time for less noise
if [ "${BENCHGATE_SKIP:-0}" = "1" ]; then
	echo "== benchmark ratchet: SKIPPED (BENCHGATE_SKIP=1) =="
else
	echo "== benchmark ratchet =="
	BENCH_SET='^(BenchmarkAnchorSearchBrute|BenchmarkAnchorSearchIndexed|BenchmarkWarmCacheAggregation|BenchmarkStage1PairScoring|BenchmarkStage1BlockScoring|BenchmarkKernelIntegralImage)$'
	go test -run '^$' -bench "$BENCH_SET" -benchtime "${BENCHGATE_TIME:-1s}" -benchmem . |
		go run scripts/benchgate.go -mode gate -baseline BENCH_pr6.json \
			-tolerance "${BENCHGATE_TOLERANCE:-0.10}"
	# PR 7 ratchet: end-to-end delta update vs full rebuild. These run the
	# whole pipeline, so the default tolerance is wider than the kernel
	# benchmarks above.
	go test -run '^$' -bench '^(BenchmarkFullRebuild|BenchmarkDeltaUpdate)$' \
		-benchtime "${BENCHGATE_TIME:-5x}" -benchmem . |
		go run scripts/benchgate.go -mode gate -baseline BENCH_pr7.json \
			-tolerance "${BENCHGATE_TOLERANCE:-0.30}"
	# PR 9 ratchet: trajectory-only reconstruction — the full IMU-only
	# pipeline (dead reckoning, turn-anchor aggregation, grid, layout)
	# with no vision stages. Same wide tolerance as the other end-to-end
	# benchmarks.
	go test -run '^$' -bench '^BenchmarkTrajectoryOnlyReconstruct$' \
		-benchtime "${BENCHGATE_TIME:-5x}" -benchmem . |
		go run scripts/benchgate.go -mode gate -baseline BENCH_pr9.json \
			-tolerance "${BENCHGATE_TOLERANCE:-0.30}"
	# Read-tier ratchet: publishing a reconstructed Lab2 survey into a
	# WAL-backed store, and one pass of a fixed locate query set (ns/op
	# covers the whole set; per-query p50/p99 print alongside). Publish
	# fsyncs like the shipped daemon, so the wide tolerance applies.
	go test -run '^$' -bench '^(BenchmarkPublish|BenchmarkLocate)$' \
		-benchtime "${BENCHGATE_TIME:-5x}" -benchmem . |
		go run scripts/benchgate.go -mode gate -baseline BENCH_pr16.json \
			-tolerance "${BENCHGATE_TOLERANCE:-0.30}"
fi

echo "CI gate passed."
