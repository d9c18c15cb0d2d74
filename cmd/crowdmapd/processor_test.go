package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdmap"
	"crowdmap/internal/aggregate"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/crowd"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/geom"
	"crowdmap/internal/gridmap"
	"crowdmap/internal/mathx"
	"crowdmap/internal/world"
)

// seedCaptures stores n encoded captures for one building, returning
// their IDs in insertion order. The geo tag is overridden to building so
// one generated world can seed corpora for several logical buildings.
func seedCaptures(t *testing.T, st *store.Store, building string, n int, seedBase int64) []string {
	t.Helper()
	users, err := crowd.NewPopulation(1, 0, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := crowd.NewGenerator(world.Lab2())
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-cap-%d", building, seedBase+int64(i))
		c, err := gen.SWS(id, users[0], geom.P(3, 7.5), geom.P(14, 7.5), mathx.NewRNG(seedBase+int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		c.Geo.Building = building
		data, err := server.EncodeCapture(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(server.CollCaptures, id, data); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// stubResult is a minimal renderable reconstruction result.
func stubResult(building string) *crowdmap.Result {
	mask := &gridmap.Binary{
		Bounds: geom.Rect{Min: geom.P(0, 0), Max: geom.P(10, 10)},
		Res:    1, W: 10, H: 10, Cells: make([]bool, 100),
	}
	return &crowdmap.Result{
		Plan:        &floorplan.Plan{Building: building, HallwayMask: mask},
		Aggregation: &aggregate.Result{},
	}
}

// newTestProcessor builds a started processor with a journal over st and
// the given number of building workers; Close is registered on t.
func newTestProcessor(t *testing.T, st *store.Store, buildingWorkers int) *processor {
	t.Helper()
	proc := newProcessor(st, 100, 1)
	proc.obs = crowdmap.NewMetricsRegistry()
	journal, err := pipeline.NewJournal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc.journal = journal
	if err := proc.start(buildingWorkers); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proc.sched.Close)
	return proc
}

// failureCount reads a capture's failure count under the processor lock.
func failureCount(p *processor, id string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failures[id]
}

// TestProcessorQuarantinesPoisonCapture is the graceful-degradation
// acceptance test: a capture that makes reconstruction fail repeatedly is
// moved to the dead-letter collection, and the job then completes with
// the remaining corpus.
func TestProcessorQuarantinesPoisonCapture(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	poison := ids[1]

	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		for _, c := range captures {
			if c.ID == poison {
				return nil, fmt.Errorf("stage 1: %w",
					&crowdmap.CaptureError{CaptureID: poison, Err: errors.New("corrupt frames")})
			}
		}
		return stubResult("Lab2"), nil
	}

	ctx := context.Background()
	// Cycles 1 and 2: the poison capture fails the job; the building stays
	// dirty and each scan redrives it.
	for attempt := 1; attempt <= maxCaptureFailures-1; attempt++ {
		if err := proc.runOnce(ctx); err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if got := failureCount(proc, poison); got != attempt {
			t.Fatalf("attempt %d: failure count %d, want %d", attempt, got, attempt)
		}
	}
	if _, ok := st.Get(collDeadLetter, poison); ok {
		t.Fatal("capture quarantined before reaching the failure threshold")
	}
	// Cycle 3 hits the threshold: quarantine, then completion with the
	// remaining three captures inside the same job.
	if err := proc.runOnce(ctx); err != nil {
		t.Fatalf("cycle after quarantine: %v", err)
	}
	if _, ok := st.Get(collDeadLetter, poison); !ok {
		t.Error("poison capture not in dead-letter collection")
	}
	if _, ok := st.Get(server.CollCaptures, poison); ok {
		t.Error("poison capture still in the working set")
	}
	if _, ok := st.Get(server.CollPlans, "Lab2"); !ok {
		t.Error("plan not produced from the remaining corpus")
	}
	if v := proc.obs.Snapshot().Counters["captures.deadlettered"]; v != 1 {
		t.Errorf("captures.deadlettered = %d, want 1", v)
	}
	// The pair cache was persisted after the successful job.
	if _, ok := st.Get(collState, statePairCache); !ok {
		t.Error("pair cache not checkpointed")
	}
}

// TestProcessorSkipsCompletedJob: a building whose corpus is unchanged is
// not re-enqueued, and even a fresh scheduler (daemon restart) skips it
// via the plan-stage checkpoint.
func TestProcessorSkipsCompletedJob(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	var calls int32
	stub := func(_ context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		atomic.AddInt32(&calls, 1)
		// Mimic the real pipeline's final checkpoint.
		if err := cfg.Checkpoints.Complete(cfg.JobID, crowdmap.StagePlan,
			crowdmap.CorpusFingerprint(captures), nil); err != nil {
			return nil, err
		}
		return stubResult("Lab2"), nil
	}
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = stub
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("first cycle: %d reconstructions, want 1", calls)
	}
	// Unchanged corpus: the dirty-tracker does not even enqueue the job.
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Errorf("clean corpus re-reconstructed (%d calls)", calls)
	}
	// A restarted daemon (fresh scheduler state, same store+journal)
	// enqueues the building once but the plan-stage checkpoint skips the
	// actual reconstruction.
	proc2 := newTestProcessor(t, st, 1)
	proc2.reconstruct = stub
	if err := proc2.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Errorf("checkpointed job was reconstructed again after restart (%d calls)", calls)
	}
}

// TestProcessorReconstructsOnSwap is the regression test for the old
// `len(keys) == p.lastCount` cycle check: dead-lettering one capture
// while one new upload arrives keeps the capture *count* constant, and
// the old logic never reconstructed the new data. Fingerprint-based
// dirty tracking must.
func TestProcessorReconstructsOnSwap(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	var calls int32
	var mu sync.Mutex
	var lastCorpus []string
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		atomic.AddInt32(&calls, 1)
		mu.Lock()
		lastCorpus = nil
		for _, c := range captures {
			lastCorpus = append(lastCorpus, c.ID)
		}
		mu.Unlock()
		return stubResult("Lab2"), nil
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("first cycle: %d calls, want 1", calls)
	}
	// The swap: one capture leaves the working set (as quarantine does),
	// one new upload lands. len(keys) is unchanged.
	if err := st.Delete(server.CollCaptures, ids[0]); err != nil {
		t.Fatal(err)
	}
	seedCaptures(t, st, "Lab2", 1, 99) // fresh content, same count
	if got := st.Len(server.CollCaptures); got != 4 {
		t.Fatalf("capture count after swap = %d, want 4 (the scenario the count check missed)", got)
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 2 {
		t.Fatalf("swapped corpus not reconstructed: %d calls, want 2", calls)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range lastCorpus {
		if id == ids[0] {
			t.Error("deleted capture still fed to reconstruction")
		}
	}
}

// TestTransientFailureNotCountedTowardQuarantine is the regression test
// for the poison-quarantine bug: a CaptureError whose cause is context
// cancellation (SIGTERM mid-extract, per-attempt retry deadline) must
// not increment the capture's failure count — three shutdowns used to
// dead-letter a healthy capture.
func TestTransientFailureNotCountedTowardQuarantine(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 3, 2)
	victim := ids[0]
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(ctx context.Context, _ []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		// A shutdown interrupts key-frame extraction of the victim.
		return nil, fmt.Errorf("stage 1: %w",
			&crowdmap.CaptureError{CaptureID: victim, Err: context.Canceled})
	}
	captures, keyByID, err := proc.buildingCaptures(context.Background(), "Lab2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxCaptureFailures; i++ {
		if err := proc.reconstructBuilding(context.Background(), "Lab2", captures, keyByID); err == nil {
			t.Fatal("interrupted reconstruction reported success")
		}
	}
	if got := failureCount(proc, victim); got != 0 {
		t.Errorf("cancellation charged %d failures to a healthy capture, want 0", got)
	}
	if _, ok := st.Get(collDeadLetter, victim); ok {
		t.Error("healthy capture dead-lettered by repeated shutdowns")
	}
	if _, ok := st.Get(server.CollCaptures, victim); !ok {
		t.Error("capture missing from the working set")
	}

	// DeadlineExceeded (per-attempt retry deadline) is equally transient.
	proc.reconstruct = func(ctx context.Context, _ []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return nil, fmt.Errorf("stage 2: %w", context.DeadlineExceeded)
	}
	if err := proc.reconstructBuilding(context.Background(), "Lab2", captures, keyByID); err == nil {
		t.Fatal("deadline-exceeded reconstruction reported success")
	}
	if got := failureCount(proc, victim); got != 0 {
		t.Errorf("deadline charged %d failures, want 0", got)
	}
}

// TestSuccessResetsFailureCounts: a capture that participated in a
// successful cycle has its failure count cleared, so unrelated future
// failures start from zero instead of inheriting stale strikes.
func TestSuccessResetsFailureCounts(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 3, 2)
	proc := newTestProcessor(t, st, 1)
	proc.mu.Lock()
	proc.failures[ids[2]] = maxCaptureFailures - 1 // one strike from quarantine
	proc.mu.Unlock()
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult("Lab2"), nil
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := failureCount(proc, ids[2]); got != 0 {
		t.Errorf("failure count after successful cycle = %d, want 0", got)
	}
}

// TestReconstructBuildingQuarantineRetryLoop covers the in-job
// quarantine-then-retry loop: when a capture crosses the failure
// threshold mid-job, it is quarantined and the job immediately retries
// with the remaining corpus — one runBuilding call, two reconstruction
// attempts, and the input slice the caller holds is not clobbered by the
// filter.
func TestReconstructBuildingQuarantineRetryLoop(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	poison := ids[1]
	proc := newTestProcessor(t, st, 1)
	proc.mu.Lock()
	proc.failures[poison] = maxCaptureFailures - 1 // next strike quarantines
	proc.mu.Unlock()
	var calls int32
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		atomic.AddInt32(&calls, 1)
		for _, c := range captures {
			if c.ID == poison {
				return nil, &crowdmap.CaptureError{CaptureID: poison, Err: errors.New("corrupt frames")}
			}
		}
		return stubResult("Lab2"), nil
	}
	captures, keyByID, err := proc.buildingCaptures(context.Background(), "Lab2")
	if err != nil {
		t.Fatal(err)
	}
	orig := append([]*crowdmap.Capture(nil), captures...)
	if err := proc.reconstructBuilding(context.Background(), "Lab2", captures, keyByID); err != nil {
		t.Fatalf("quarantine-then-retry job failed: %v", err)
	}
	if got := atomic.LoadInt32(&calls); got != 2 {
		t.Errorf("reconstruction attempts = %d, want 2 (fail, quarantine, retry)", got)
	}
	if _, ok := st.Get(collDeadLetter, poison); !ok {
		t.Error("poison capture not quarantined")
	}
	// The caller's slice must be intact: the in-place captures[:0] filter
	// used to overwrite the array other views still referenced.
	for i, c := range orig {
		if captures[i] != c {
			t.Fatalf("caller slice clobbered at %d: %v != %v", i, captures[i].ID, c.ID)
		}
	}
}

// TestProcessorDeadLettersExcludedCaptures: when a reconstruction
// completes in degraded mode, the captures it excluded (quality gate,
// recovered panics) are dead-lettered immediately — no three-strike wait —
// while the survivors keep clean failure counts and the plan still lands.
func TestProcessorDeadLettersExcludedCaptures(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	bad := ids[2]
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		if cfg.Quality == nil {
			t.Error("processor did not pass quality params to the pipeline")
		}
		res := stubResult("Lab2")
		res.Excluded = []crowdmap.Exclusion{{
			CaptureID: bad,
			Stage:     crowdmap.StageQualityGate,
			Reasons:   []string{"imu_too_corrupt"},
		}}
		res.Coverage = crowdmap.Coverage{Input: len(captures), Used: len(captures) - 1, Excluded: 1, Degraded: true}
		return res, nil
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatalf("degraded cycle failed: %v", err)
	}
	if _, ok := st.Get(collDeadLetter, bad); !ok {
		t.Error("excluded capture not dead-lettered")
	}
	if _, ok := st.Get(server.CollCaptures, bad); ok {
		t.Error("excluded capture still in working set")
	}
	if _, ok := st.Get(server.CollPlans, "Lab2"); !ok {
		t.Error("degraded plan not stored")
	}
	if v := proc.obs.Snapshot().Counters["captures.deadlettered"]; v != 1 {
		t.Errorf("captures.deadlettered = %d, want 1", v)
	}
	for _, id := range ids {
		if id != bad {
			if _, ok := st.Get(server.CollCaptures, id); !ok {
				t.Errorf("surviving capture %s missing from working set", id)
			}
		}
	}
}

// TestProcessorDeadLetterUsesStoreKey: nothing forces a client to upload
// an archive under the ID its meta.json declares, but exclusions and
// CaptureErrors carry the declared ID. Quarantine must translate that
// back to the store key, or the dead-letter move is a silent no-op (and
// a hostile archive declaring a victim's ID could get the victim's
// document quarantined in its place).
func TestProcessorDeadLetterUsesStoreKey(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 4, 2)
	declared := ids[3]
	uploadKey := "renamed-upload"
	// Re-file the last capture under a store key that differs from the ID
	// its metadata declares.
	data, _ := st.Get(server.CollCaptures, declared)
	if err := st.Put(server.CollCaptures, uploadKey, data); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(server.CollCaptures, declared); err != nil {
		t.Fatal(err)
	}
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		res := stubResult("Lab2")
		res.Excluded = []crowdmap.Exclusion{{
			CaptureID: declared, // the pipeline only knows the declared ID
			Stage:     crowdmap.StageQualityGate,
			Reasons:   []string{"imu_too_corrupt"},
		}}
		res.Coverage = crowdmap.Coverage{Input: len(captures), Used: len(captures) - 1, Excluded: 1, Degraded: true}
		return res, nil
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatalf("degraded cycle failed: %v", err)
	}
	if _, ok := st.Get(collDeadLetter, uploadKey); !ok {
		t.Error("renamed capture not dead-lettered under its store key")
	}
	if _, ok := st.Get(server.CollCaptures, uploadKey); ok {
		t.Error("renamed capture still in working set")
	}
	for _, id := range ids[:3] {
		if _, ok := st.Get(server.CollCaptures, id); !ok {
			t.Errorf("innocent capture %s evicted from working set", id)
		}
	}
}

// TestBuildingCapturesSkipsDuplicateDeclaredIDs: two store documents
// decoding to the same declared capture ID would make failure
// attribution ambiguous, so only the first (in store key order) joins
// the corpus.
func TestBuildingCapturesSkipsDuplicateDeclaredIDs(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", 3, 2)
	data, _ := st.Get(server.CollCaptures, ids[0])
	if err := st.Put(server.CollCaptures, "zz-imposter", data); err != nil {
		t.Fatal(err)
	}
	proc := newTestProcessor(t, st, 1)
	captures, keyByID, err := proc.buildingCaptures(context.Background(), "Lab2")
	if err != nil {
		t.Fatal(err)
	}
	if len(captures) != 3 {
		t.Fatalf("corpus size = %d, want 3 (duplicate declared ID not skipped)", len(captures))
	}
	if got := keyByID[ids[0]]; got != ids[0] {
		t.Errorf("declared ID %q maps to store key %q, want the first document %q", ids[0], got, ids[0])
	}
}

// TestProcessorOverlappingBuildings is the end-to-end concurrency
// acceptance test: three buildings' corpora in one store, two building
// workers — two buildings reconstruct concurrently, the third waits, and
// no building runs twice at once. Plans land per building.
func TestProcessorOverlappingBuildings(t *testing.T) {
	st := store.New()
	buildings := []string{"B1", "B2", "B3"}
	for i, b := range buildings {
		seedCaptures(t, st, b, 3, int64(2+10*i))
	}
	proc := newTestProcessor(t, st, 2)
	var mu sync.Mutex
	inflight := make(map[string]int)
	var cur, peak int32
	release := make(chan struct{})
	started := make(chan string, len(buildings))
	proc.reconstruct = func(ctx context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		b := captures[0].Geo.Building
		mu.Lock()
		inflight[b]++
		if inflight[b] > 1 {
			t.Errorf("building %s reconstructing twice concurrently", b)
		}
		mu.Unlock()
		if n := atomic.AddInt32(&cur, 1); n > atomic.LoadInt32(&peak) {
			atomic.StoreInt32(&peak, n)
		}
		started <- b
		select {
		case <-release:
		case <-ctx.Done():
		}
		atomic.AddInt32(&cur, -1)
		mu.Lock()
		inflight[b]--
		mu.Unlock()
		return stubResult(b), nil
	}
	if err := proc.scan(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two jobs in flight at once; the third queues behind them.
	<-started
	<-started
	select {
	case b := <-started:
		t.Fatalf("third building %s started with 2 workers", b)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := proc.sched.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Errorf("peak concurrent reconstructions = %d, want >= 2", peak)
	}
	for _, b := range buildings {
		if _, ok := st.Get(server.CollPlans, b); !ok {
			t.Errorf("no plan stored for %s", b)
		}
	}
}

// TestScanQuarantinesUndecodableCapture: a stored archive that stops
// decoding is counted toward quarantine by the scan (not skipped
// silently forever).
func TestScanQuarantinesUndecodableCapture(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	if err := st.Put(server.CollCaptures, "junk", []byte("not a zip")); err != nil {
		t.Fatal(err)
	}
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult("Lab2"), nil
	}
	for i := 0; i < maxCaptureFailures; i++ {
		if err := proc.runOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st.Get(collDeadLetter, "junk"); !ok {
		t.Error("undecodable capture not quarantined after repeated scans")
	}
	if _, ok := st.Get(server.CollCaptures, "junk"); ok {
		t.Error("undecodable capture still in working set")
	}
}

// TestProcessorDeltaMode pins the daemon's one reconstruction path: the
// default processor runs the real delta pipeline, so after an upload the
// building's second job reuses every track the first one extracted and
// extracts only the new capture's.
func TestProcessorDeltaMode(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline twice")
	}
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 20)
	proc := newTestProcessor(t, st, 1)
	ctx := context.Background()
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	first := proc.obs.Snapshot().Counters
	if got := first["reconstruct.delta.tracks.extracted"]; got != 3 {
		t.Fatalf("first job extracted %d tracks, want 3", got)
	}
	seedCaptures(t, st, "Lab2", 1, 90)
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	second := proc.obs.Snapshot().Counters
	for name, want := range map[string]int64{
		"reconstruct.delta.runs":             1,
		"reconstruct.delta.tracks.reused":    3,
		"reconstruct.delta.tracks.extracted": 1,
	} {
		if got := second[name] - first[name]; got != want {
			t.Errorf("second job: %s advanced by %d, want %d", name, got, want)
		}
	}
	if !proc.planIntact("Lab2") {
		t.Error("no plan stored after the second job")
	}
}

// TestProcessorDeltaStatePerBuilding pins the processor's state wiring:
// each building gets its own DeltaState that persists across cycles, and
// the rebuild-interval knob reaches the pipeline config.
func TestProcessorDeltaStatePerBuilding(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab1", 3, 2)
	seedCaptures(t, st, "Lab2", 3, 20)

	proc := newTestProcessor(t, st, 1)
	proc.rebuildEvery = 5
	var mu sync.Mutex
	states := make(map[string][]*crowdmap.DeltaState)
	proc.reconstruct = func(_ context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config, state *crowdmap.DeltaState) (*crowdmap.Result, error) {
		if state == nil {
			return nil, errors.New("nil delta state")
		}
		if cfg.DeltaRebuildEvery != 5 {
			return nil, fmt.Errorf("DeltaRebuildEvery = %d, want 5", cfg.DeltaRebuildEvery)
		}
		b := captures[0].Geo.Building
		mu.Lock()
		states[b] = append(states[b], state)
		mu.Unlock()
		return stubResult(b), nil
	}

	ctx := context.Background()
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	// New content makes both buildings dirty again for a second cycle.
	seedCaptures(t, st, "Lab1", 1, 90)
	seedCaptures(t, st, "Lab2", 1, 91)
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, b := range []string{"Lab1", "Lab2"} {
		if len(states[b]) != 2 {
			t.Fatalf("%s: %d delta runs, want 2", b, len(states[b]))
		}
		if states[b][0] != states[b][1] {
			t.Errorf("%s: delta state not persistent across cycles", b)
		}
	}
	if states["Lab1"][0] == states["Lab2"][0] {
		t.Error("buildings share one delta state")
	}
}

// TestProcessorDropsLegacyTrackRecords: the per-capture track records
// older daemons journaled are dropped by the building's first job, and
// the building's other checkpoints stay.
func TestProcessorDropsLegacyTrackRecords(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 20)
	proc := newTestProcessor(t, st, 1)
	for _, stage := range []string{"track/aa", "track/bb", crowdmap.StagePairs} {
		if err := proc.journal.Complete("Lab2", stage, "fp", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := proc.journal.Complete("Lab1", "track/cc", "fp", nil); err != nil {
		t.Fatal(err)
	}
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult("Lab2"), nil
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := proc.journal.Stages("Lab2"); !reflect.DeepEqual(got, []string{crowdmap.StagePairs}) {
		t.Errorf("Lab2 stages after first job = %v, want only %q", got, crowdmap.StagePairs)
	}
	// Lab1 has no captures, so no job: its records wait for its first one.
	if got := proc.journal.Stages("Lab1"); len(got) != 1 {
		t.Errorf("Lab1 stages = %v, want its record untouched", got)
	}
}

// servedPlan returns the stored SVG plan and the served ETag of one
// building.
func servedPlan(t *testing.T, proc *processor, building string) ([]byte, string) {
	t.Helper()
	svg, ok, err := proc.keep.Get(server.CollPlans, building)
	if err != nil || !ok {
		t.Fatalf("no stored plan: (%v, %v)", ok, err)
	}
	pv, ok := proc.maps.Plan(building)
	if !ok {
		t.Fatal("no served plan")
	}
	return svg, pv.ETag
}

// realProcessor is newTestProcessor with the read tier attached and the
// default (real) reconstruction.
func realProcessor(t *testing.T, st *store.Store) *processor {
	t.Helper()
	proc := newTestProcessor(t, st, 1)
	maps, err := mapserve.New(st, mapserve.WithObs(proc.obs))
	if err != nil {
		t.Fatal(err)
	}
	proc.maps = maps
	return proc
}

// TestProcessorDeltaMatchesFreshProcessor is the daemon-level parity
// pin for the always-on delta path: a warm processor fed captures one at
// a time, then losing one to the dead-letter collection, must store the
// same SVG and serve the same ETag after every step as a fresh
// processor reconstructing the same captures cold.
func TestProcessorDeltaMatchesFreshProcessor(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline cold and warm at every step")
	}
	const building = "Lab2"
	pool := store.New()
	ids := seedCaptures(t, pool, building, 5, 30)
	st := store.New()
	warm := realProcessor(t, st)
	ctx := context.Background()

	check := func(step string) {
		t.Helper()
		if err := warm.runOnce(ctx); err != nil {
			t.Fatalf("%s: warm run: %v", step, err)
		}
		fresh := store.New()
		for _, id := range st.Keys(server.CollCaptures) {
			data, _ := st.Get(server.CollCaptures, id)
			if err := fresh.Put(server.CollCaptures, id, data); err != nil {
				t.Fatal(err)
			}
		}
		cold := realProcessor(t, fresh)
		if err := cold.runOnce(ctx); err != nil {
			t.Fatalf("%s: cold run: %v", step, err)
		}
		gotSVG, gotETag := servedPlan(t, warm, building)
		wantSVG, wantETag := servedPlan(t, cold, building)
		if !bytes.Equal(gotSVG, wantSVG) {
			t.Errorf("%s: warm plan SVG differs from a cold rebuild (%d vs %d bytes)", step, len(gotSVG), len(wantSVG))
		}
		if gotETag != wantETag {
			t.Errorf("%s: warm ETag %.12s, cold %.12s", step, gotETag, wantETag)
		}
	}
	for i, id := range ids {
		data, _ := pool.Get(server.CollCaptures, id)
		if err := st.Put(server.CollCaptures, id, data); err != nil {
			t.Fatal(err)
		}
		if i >= 2 {
			check(fmt.Sprintf("%d captures", i+1))
		}
	}
	warm.mu.Lock()
	warm.quarantineLocked(ids[1], "test")
	warm.mu.Unlock()
	check("after dead-lettering " + ids[1])
	if got := warm.obs.Snapshot().Counters["reconstruct.delta.tracks.reused"]; got == 0 {
		t.Error("warm processor never reused a track")
	}
}

// TestProcessorPublishesToReadTier: completing a reconstruction publishes
// the result to the read tier (servable at version 1), and a later cycle
// that reconstructs identical content leaves the served version alone.
func TestProcessorPublishesToReadTier(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	proc := newTestProcessor(t, st, 1)
	maps, err := mapserve.New(st, mapserve.WithObs(proc.obs))
	if err != nil {
		t.Fatal(err)
	}
	proc.maps = maps
	proc.reconstruct = func(_ context.Context, _ []*crowdmap.Capture, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult("Lab2"), nil
	}

	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	view, ok := maps.Plan("Lab2")
	if !ok {
		t.Fatal("completed reconstruction not published to the read tier")
	}
	if view.Version != 1 || view.ETag == "" {
		t.Fatalf("published identity = v%d etag %q, want version 1", view.Version, view.ETag)
	}
	if n := proc.obs.Snapshot().Counters["mapserve.publishes"]; n != 1 {
		t.Errorf("mapserve.publishes = %d, want 1", n)
	}

	// Grow the corpus so the building redrives, but keep the (stubbed)
	// reconstruction output identical: the republish must be a no-op.
	seedCaptures(t, st, "Lab2", 2, 40)
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	view2, ok := maps.Plan("Lab2")
	if !ok {
		t.Fatal("read tier lost the plan after a rebuild")
	}
	if view2.Version != view.Version || view2.ETag != view.ETag {
		t.Errorf("identical rebuild changed identity: v%d/%s -> v%d/%s",
			view.Version, view.ETag, view2.Version, view2.ETag)
	}
	if n := proc.obs.Snapshot().Counters["mapserve.publish.unchanged"]; n != 1 {
		t.Errorf("mapserve.publish.unchanged = %d, want 1", n)
	}
}
