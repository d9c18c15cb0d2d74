// Command crowdmapd is the CrowdMap cloud backend daemon: it serves the
// chunked capture-upload API, continuously folds everything uploaded so
// far into per-building floor plans, and publishes the results back
// through the same API — the full client→cloud loop of the paper's
// Section IV prototype on one machine. Each completed reconstruction is
// additionally published to the read tier (internal/cloud/mapserve): a
// monotonically versioned plan served as vector JSON and an
// occupancy-grid PNG with ETag/If-None-Match revalidation, plus a
// localization endpoint that answers a single query frame (and optional
// IMU snippet) with a pose on the current plan, matched against a
// persisted per-building key-frame index (decoded indexes are held in an
// -index-cache-bounded LRU). The full HTTP reference is docs/API.md.
//
// Usage:
//
//	crowdmapd [-addr :8080] [-interval 30s] [-data-dir DIR] [-wal-sync always]
//	          [-snapshot store.json] [-hypotheses N] [-workers N]
//	          [-building-workers N] [-max-inflight-mb N] [-client-chunk-rate R]
//	          [-client-chunk-burst N] [-chunk-body-timeout D] [-drain-timeout D]
//	          [-quality lenient] [-mode vision] [-stage-budget D]
//	          [-rebuild-every N] [-index-cache N] [-scrub-interval D] [-metrics]
//
// Reconstruction is scheduled per building: every -interval the capture
// corpus is scanned and grouped by building, and buildings whose corpus
// fingerprint changed are enqueued on a pool of -building-workers
// concurrent reconstruction jobs (one job per building at a time, fair
// FIFO between buildings). Each building keeps incremental
// reconstruction state in memory across cycles: a new upload costs only
// its own key-frame extraction and its pair comparisons against the
// existing corpus, with the occupancy grid patched and unchanged rooms
// reused — the plan is byte-identical to a full rebuild. The first
// change to a building after a restart is a full rebuild. -rebuild-every
// N forces a full rebuild every N-th cycle per building as a correctness
// backstop (0 = never); progress is visible on the reconstruct.delta.*
// metrics. The upload path applies admission control: a global in-flight
// chunk-byte budget (-max-inflight-mb) and a per-client token bucket
// (-client-chunk-rate/-client-chunk-burst) answer saturation with 429 +
// Retry-After instead of queueing without bound.
//
// Input quality is gated twice with one -quality policy (off | lenient |
// strict): a completed upload failing validation is refused with 422 and
// machine-readable reason codes (oversized archives get 413), and each
// reconstruction re-checks its corpus — captures failing there are
// excluded from the job, reported on the result, and dead-lettered, so a
// poisoned corpus degrades to its healthy subset instead of crashing or
// wedging the building. -stage-budget arms a soft per-stage watchdog that
// counts overruns on pipeline.budget.exceeded without cancelling work.
//
// -mode selects the reconstruction modalities (vision | trajectory |
// hybrid). Trajectory mode builds floor plans from dead-reckoned IMU
// walks alone; hybrid runs the vision pipeline but rescues captures whose
// video fails the gate into the trajectory path. In both, the upload gate
// additionally admits IMU-only captures (zero frames) on the inertial
// verdict alone, and the per-run routing is reported on the
// reconstruct.mode.* metrics.
//
// With -data-dir the daemon is durable: every document mutation and every
// acknowledged upload chunk goes through a write-ahead log before it is
// confirmed, reconstruction progress is checkpointed per stage, and a
// restart replays the log — partial uploads resume where they left off
// and finished buildings are not reprocessed. Without -data-dir the
// daemon is memory-only (the legacy -snapshot flag still saves/loads a
// JSON dump at exit/start).
//
// Every derived artifact above the WAL — checkpoints, the pair-cache
// export, SVG plans, and the read tier's plan records and localization
// indexes — is persisted under an integrity envelope
// (internal/cloud/integrity) and verified on every read: a flipped bit is
// quarantined and counted (integrity.*), never served, and the owning
// subsystem recomputes the artifact from surviving inputs. A paced
// background scrubber additionally walks all of them every
// -scrub-interval (plus one pass at startup; 0 disables), counting
// scrub.passes/docs/corrupt and redriving repair for whatever it finds —
// see docs/OPERATIONS.md for the corruption runbook.
//
// Graceful shutdown (SIGINT/SIGTERM): the server stops admitting uploads
// (503 + Retry-After), in-flight building jobs get -drain-timeout to
// finish (then their contexts are cancelled — stage checkpoints make the
// work resumable), the pair cache is persisted, and the WAL is compacted
// and synced before exit.
//
// The HTTP API always serves GET /metrics with a JSON snapshot covering
// ingestion (http.*, uploads.*, admission.*), durability (store.wal.*),
// scheduling (queue.*, sched.*, drain.*) and reconstruction (stage.*,
// keyframe.*, compare.*, aggregate.*, pipeline.resume.*) — every
// subsystem shares one registry. The -metrics flag additionally logs a
// snapshot after every scan.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"crowdmap"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/cloud/queue"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/obs"
	"crowdmap/internal/quality"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("crowdmapd: ")
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		interval   = flag.Duration("interval", 30*time.Second, "corpus scan interval")
		dataDir    = flag.String("data-dir", "", "durable data directory (WAL-backed store); empty = memory-only")
		walSync    = flag.String("wal-sync", "always", "WAL fsync policy: always | interval | never")
		snapshot   = flag.String("snapshot", "", "optional store snapshot path, memory-only mode (loaded at start, saved on exit)")
		hypotheses = flag.Int("hypotheses", 20000, "room layout hypotheses per panorama")
		workers    = flag.Int("workers", 0, "pipeline workers per reconstruction job (0 = all CPUs)")
		bWorkers   = flag.Int("building-workers", 2, "concurrent per-building reconstruction jobs")
		inflightMB = flag.Int("max-inflight-mb", 256, "global in-flight upload chunk budget, MiB (0 = unlimited)")
		chunkRate  = flag.Float64("client-chunk-rate", 0, "per-client sustained chunk uploads per second (0 = unlimited)")
		chunkBurst = flag.Int("client-chunk-burst", 16, "per-client chunk burst size")
		bodyTO     = flag.Duration("chunk-body-timeout", 30*time.Second, "read deadline for a chunk request body (0 = none)")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight building jobs")
		metrics    = flag.Bool("metrics", false, "log a metrics snapshot after each scan")
		qualityArg = flag.String("quality", "lenient", "capture quality gate: off | lenient | strict (applied at upload admission and again before reconstruction)")
		modeArg    = flag.String("mode", "vision", "reconstruction modalities: vision | trajectory | hybrid (trajectory/hybrid also admit IMU-only uploads)")
		stageTO    = flag.Duration("stage-budget", 0, "soft wall-clock budget per reconstruction stage; overruns are counted on pipeline.budget.exceeded, never cancelled (0 = off)")
		rebuildN   = flag.Int("rebuild-every", 16, "force a full rebuild every N-th reconstruction of a building as a correctness backstop (0 = never)")
		indexCache = flag.Int("index-cache", mapserve.DefaultIndexCacheSize, "buildings whose decoded localization index stays in memory (LRU); raise for many hot buildings, lower under memory pressure")
		scrubInt   = flag.Duration("scrub-interval", 10*time.Minute, "background integrity-scrub interval over persisted artifacts (0 = off; one pass also runs at startup)")
	)
	flag.Parse()

	// The quality gate guards two doors with one policy: uploads that fail
	// it are refused with 422 + reason codes, and anything already stored
	// (or admitted while the gate was off) is re-checked before each
	// reconstruction, where failures become exclusions, not job errors.
	var gateParams *quality.Params
	if *qualityArg != "off" {
		pol, err := quality.ParsePolicy(*qualityArg)
		if err != nil {
			log.Fatalf("-quality: %v", err)
		}
		qp := quality.DefaultParams()
		qp.Policy = pol
		gateParams = &qp
	}
	mode, err := crowdmap.ParseMode(*modeArg)
	if err != nil {
		log.Fatalf("-mode: %v", err)
	}

	// One registry spans every subsystem: ingestion, WAL, scheduler and the
	// reconstruction pipeline all feed it, and GET /metrics exposes all of it.
	reg := obs.New()

	st := store.New()
	var wal *store.WAL
	serverOpts := []server.Option{
		server.WithObs(reg),
		// /readyz answers 503 until startup recovery and processor wiring
		// finish (MarkReady below), and again once shutdown drain begins.
		server.WithNotReady(),
		server.WithAdmission(server.AdmissionConfig{
			MaxInflightBytes: int64(*inflightMB) << 20,
			ClientRate:       *chunkRate,
			ClientBurst:      *chunkBurst,
			BodyTimeout:      *bodyTO,
		}),
	}
	if gateParams != nil {
		serverOpts = append(serverOpts, server.WithQualityGate(*gateParams))
		if mode != crowdmap.ModeVision {
			// Trajectory-capable deployments keep IMU-only and bad-video
			// uploads the full gate would 422; the pipeline routes them.
			serverOpts = append(serverOpts, server.WithIMUOnlyAdmission())
		}
	}
	if *dataDir != "" {
		pol, err := store.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		wal, err = store.OpenWAL(*dataDir, store.WALSync(pol), store.WALObs(reg))
		if err != nil {
			log.Fatalf("wal: %v", err)
		}
		st = wal.Store()
		recovered := wal.RecoveredUploads()
		log.Printf("wal: recovered %d captures, %d plans, %d partial uploads from %s",
			st.Len(server.CollCaptures), st.Len(server.CollPlans), len(recovered), *dataDir)
		serverOpts = append(serverOpts, server.WithChunkLog(wal), server.WithRecoveredUploads(recovered))
		if *snapshot != "" {
			log.Print("-snapshot is ignored when -data-dir is set")
		}
	} else if *snapshot != "" {
		if err := st.LoadFile(*snapshot); err != nil {
			if !os.IsNotExist(err) {
				log.Printf("snapshot load: %v (starting empty)", err)
			}
		} else {
			log.Printf("loaded snapshot: %d captures, %d plans",
				st.Len(server.CollCaptures), st.Len(server.CollPlans))
		}
	}
	// The read tier serves versioned plans (vector JSON + PNG, ETag/304)
	// and the localization endpoint; the processor publishes every
	// completed reconstruction into it.
	maps, err := mapserve.New(st,
		mapserve.WithObs(reg),
		mapserve.WithIndexCacheSize(*indexCache))
	if err != nil {
		log.Fatalf("mapserve: %v", err)
	}
	serverOpts = append(serverOpts, server.WithMapServe(maps))
	srv, err := server.New(st, serverOpts...)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// The queue scheduler drives the periodic corpus scan; the scan feeds
	// dirty buildings to the per-building scheduler inside the processor.
	scanSched, err := queue.New(1, 4)
	if err != nil {
		log.Fatal(err)
	}
	scanSched.SetObs(reg)
	journal, err := pipeline.NewJournal(st, reg)
	if err != nil {
		log.Fatal(err)
	}
	proc := newProcessor(st, *hypotheses, *workers)
	proc.obs = reg
	proc.logMetrics = *metrics
	proc.journal = journal
	proc.quality = gateParams
	proc.mode = mode
	proc.stageBudget = *stageTO
	proc.rebuildEvery = *rebuildN
	proc.maps = maps
	proc.scrubPace = time.Millisecond
	// start wires the integrity keeper, so the pair-cache load (which
	// verifies the dump's envelope) must come after it.
	if err := proc.start(*bWorkers); err != nil {
		log.Fatal(err)
	}
	proc.loadPairCache()
	// The scan runs under the retry policy: transient store failures back
	// off and retry, and a scan that keeps failing is reported through the
	// dead-letter queue instead of silently looping.
	stop, err := scanSched.Every(*interval, scanSched.RetryJob(queue.Job{ID: "scan", Run: proc.scan}, queue.DefaultRetryPolicy()))
	if err != nil {
		log.Fatal(err)
	}
	// The background scrubber shares the scan queue: one integrity pass at
	// startup (catches rot from while the daemon was down), then every
	// -scrub-interval. Corruption is quarantined and repair redriven
	// through the normal scan/reconstruct path.
	stopScrub := func() {}
	if *scrubInt > 0 {
		scrubJob := scanSched.RetryJob(queue.Job{ID: "scrub", Run: proc.scrub}, queue.DefaultRetryPolicy())
		if stopScrub, err = scanSched.Every(*scrubInt, scrubJob); err != nil {
			log.Fatal(err)
		}
		if err := scanSched.Submit(scrubJob); err != nil {
			log.Printf("startup scrub: %v", err)
		}
	}
	go func() {
		for r := range scanSched.Results() {
			if r.Err != nil {
				log.Printf("job %s: %v", r.ID, r.Err)
			}
		}
	}()

	srv.MarkReady()
	go func() {
		log.Printf("listening on %s (%d building workers)", *addr, *bWorkers)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("http: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down: draining")
	// 1. Stop admitting uploads (clients get 503 + Retry-After and resume
	//    against the restarted daemon), then stop scheduling new scans.
	srv.StartDrain()
	stop()
	stopScrub()
	scanSched.Close()
	for _, d := range scanSched.DeadLetters() {
		log.Printf("dead-letter: job %s failed %d attempts: %s", d.JobID, d.Attempts, d.Err)
	}
	// 2. Give in-flight building jobs the drain budget; past it their
	//    contexts are cancelled and the stage checkpoints make them
	//    resumable on restart.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTO)
	if err := proc.sched.Drain(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	cancelDrain()
	proc.sched.Close()
	// The delta memos are dead once no job can run. Release and collect
	// them before WAL compaction, which allocates a few times the log's
	// size and would otherwise do so on top of every building's memo,
	// raising the daemon's peak RSS at exit.
	proc.dropDeltaStates()
	runtime.GC()
	// 3. Flush state: HTTP listener, pair cache, WAL.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	_ = httpSrv.Shutdown(httpCtx)
	proc.savePairCache()
	if wal != nil {
		if err := wal.Compact(); err != nil {
			log.Printf("wal compact: %v", err)
		}
		if err := wal.Close(); err != nil {
			log.Printf("wal close: %v", err)
		}
	} else if *snapshot != "" {
		if err := st.SaveFile(*snapshot); err != nil {
			log.Printf("snapshot save: %v", err)
		} else {
			log.Printf("saved snapshot to %s", *snapshot)
		}
	}
	if *metrics {
		if data, err := json.Marshal(reg.Snapshot()); err == nil {
			log.Printf("final metrics: %s", data)
		}
	}
	log.Print("shutdown complete")
}
