package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdmap"
	"crowdmap/internal/aggregate"
	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/cloud/queue"
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
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-cap-%d", building, seedBase+int64(i))
		if err := st.Put(server.CollCaptures, id, encodeWalk(t, id, building, seedBase+int64(i))); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// encodeWalk encodes one generated corridor walk of building; seed picks
// its content.
func encodeWalk(t *testing.T, id, building string, seed int64) []byte {
	t.Helper()
	users, err := crowd.NewPopulation(1, 0, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := crowd.NewGenerator(world.Lab2())
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.SWS(id, users[0], geom.P(3, 7.5), geom.P(14, 7.5), mathx.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	c.Geo.Building = building
	data, err := server.EncodeCapture(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// stubResult is a minimal renderable reconstruction result over
// captures, minus the excluded ones, with Coverage and Corpus set the
// way the pipeline sets them.
func stubResult(building string, captures []crowdmap.CaptureSource, excluded ...crowdmap.Exclusion) *crowdmap.Result {
	out := make(map[string]bool, len(excluded))
	for _, ex := range excluded {
		out[ex.CaptureID] = true
	}
	var used []crowdmap.CorpusEntry
	for _, c := range captures {
		if !out[c.Entry.ID] {
			used = append(used, c.Entry)
		}
	}
	mask := &gridmap.Binary{
		Bounds: geom.Rect{Min: geom.P(0, 0), Max: geom.P(10, 10)},
		Res:    1, W: 10, H: 10, Cells: make([]bool, 100),
	}
	return &crowdmap.Result{
		Plan:        &floorplan.Plan{Building: building, HallwayMask: mask},
		Aggregation: &aggregate.Result{},
		Excluded:    excluded,
		Coverage: crowdmap.Coverage{Input: len(captures), Used: len(used),
			Excluded: len(excluded), Degraded: len(excluded) > 0},
		Corpus: crowdmap.CorpusFingerprintOf(used),
	}
}

// newProc builds a started processor over st (journal, read tier, a
// fresh metrics registry) without registering any test cleanup.
func newProc(t *testing.T, st *store.Store, buildingWorkers int) *processor {
	t.Helper()
	reg := crowdmap.NewMetricsRegistry()
	maps, err := mapserve.New(st, mapserve.WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	proc := newProcessor(st, maps, 100, 1)
	proc.obs = reg
	journal, err := pipeline.NewJournal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc.journal = journal
	if err := proc.start(buildingWorkers); err != nil {
		t.Fatal(err)
	}
	return proc
}

// newTestProcessor is newProc with the scheduler's Close registered on t.
func newTestProcessor(t *testing.T, st *store.Store, buildingWorkers int) *processor {
	t.Helper()
	proc := newProc(t, st, buildingWorkers)
	t.Cleanup(proc.sched.Close)
	return proc
}

// corpusSources refreshes the processor's capture metadata and makes one
// building's pipeline sources, as a job would.
func corpusSources(t *testing.T, proc *processor, building string) ([]crowdmap.CaptureSource, map[string]string) {
	t.Helper()
	if err := proc.refreshMeta(context.Background(), proc.st.Keys(server.CollCaptures)); err != nil {
		t.Fatal(err)
	}
	captures, keyByID := proc.sources(proc.corpora(nil)[building])
	return captures, keyByID
}

// counter reads one counter of the processor's registry.
func counter(p *processor, name string) int64 {
	return p.obs.Snapshot().Counters[name]
}

// served reports whether the read tier serves a plan for building.
func served(p *processor, building string) bool {
	_, ok := p.maps.Plan(building)
	return ok
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
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		for _, c := range captures {
			if c.Entry.ID == poison {
				return nil, fmt.Errorf("stage 1: %w",
					&crowdmap.CaptureError{CaptureID: poison, Err: errors.New("corrupt frames")})
			}
		}
		return stubResult("Lab2", captures), nil
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
	if !served(proc, "Lab2") {
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

// TestProcessorSkipsCompletedJob: once a corpus is reconstructed, its
// building is current. Later scans enqueue nothing, and neither does a
// restarted daemon (fresh scheduler and read tier over the same store):
// a restart over a current store runs no job at all.
func TestProcessorSkipsCompletedJob(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	var calls int32
	stub := func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		atomic.AddInt32(&calls, 1)
		return stubResult("Lab2", captures), nil
	}
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = stub
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("first cycle: %d reconstructions, want 1", calls)
	}
	// Unchanged corpus: the scan does not even enqueue the job.
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := counter(proc, "sched.jobs.enqueued"); got != 1 || atomic.LoadInt32(&calls) != 1 {
		t.Errorf("clean corpus: %d jobs enqueued, %d reconstructions; want 1 and 1", got, calls)
	}
	// A restarted daemon over the same store enqueues nothing.
	proc2 := newTestProcessor(t, st, 1)
	proc2.reconstruct = stub
	if err := proc2.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := counter(proc2, "sched.jobs.enqueued"); got != 0 {
		t.Errorf("restart over a current store enqueued %d jobs, want 0", got)
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Errorf("current building reconstructed again after restart (%d calls)", calls)
	}
}

// TestSmallBuildingNeverEnqueued: a building with fewer than minCaptures
// captures is never enqueued, scan after scan.
func TestSmallBuildingNeverEnqueued(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", minCaptures-1, 2)
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		t.Error("reconstructed a building below the corpus threshold")
		return stubResult("Lab2", captures), nil
	}
	for i := 0; i < 3; i++ {
		if err := proc.runOnce(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(proc, "sched.jobs.enqueued"); got != 0 {
		t.Errorf("sched.jobs.enqueued = %d, want 0", got)
	}
}

// TestNextScanEnqueuesNothing pins the single currency signal: after each
// kind of successful job, the record names exactly the corpus the next
// scan sees, so that scan enqueues nothing.
func TestNextScanEnqueuesNothing(t *testing.T) {
	stub := func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult("Lab2", captures), nil
	}
	cases := []struct {
		name string
		// setup seeds st and wires proc's reconstruction; the next
		// runOnce must run one successful job.
		setup func(t *testing.T, st *store.Store, proc *processor)
	}{
		{"plain upload", func(t *testing.T, st *store.Store, proc *processor) {
			seedCaptures(t, st, "Lab2", 3, 2)
			proc.reconstruct = stub
			if err := proc.runOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			seedCaptures(t, st, "Lab2", 1, 90)
		}},
		{"gate exclusion", func(t *testing.T, st *store.Store, proc *processor) {
			bad := seedCaptures(t, st, "Lab2", 4, 2)[2]
			proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
				var excluded []crowdmap.Exclusion
				for _, c := range captures {
					if c.Entry.ID == bad {
						excluded = append(excluded, crowdmap.Exclusion{CaptureID: bad,
							Stage: crowdmap.StageQualityGate, Reasons: []string{"imu_too_corrupt"}})
					}
				}
				return stubResult("Lab2", captures, excluded...), nil
			}
		}},
		{"poison quarantined in the retry loop", func(t *testing.T, st *store.Store, proc *processor) {
			poison := seedCaptures(t, st, "Lab2", 4, 2)[1]
			proc.mu.Lock()
			proc.failures[poison] = maxCaptureFailures - 1
			proc.mu.Unlock()
			proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
				for _, c := range captures {
					if c.Entry.ID == poison {
						return nil, &crowdmap.CaptureError{CaptureID: poison, Err: errors.New("corrupt frames")}
					}
				}
				return stubResult("Lab2", captures), nil
			}
		}},
		{"duplicate declared ID", func(t *testing.T, st *store.Store, proc *processor) {
			ids := seedCaptures(t, st, "Lab2", 3, 2)
			data, _ := st.Get(server.CollCaptures, ids[0])
			if err := st.Put(server.CollCaptures, "zz-imposter", data); err != nil {
				t.Fatal(err)
			}
			proc.reconstruct = stub
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := store.New()
			proc := newTestProcessor(t, st, 1)
			tc.setup(t, st, proc)
			ctx := context.Background()
			done := counter(proc, "sched.jobs.completed")
			if err := proc.runOnce(ctx); err != nil {
				t.Fatal(err)
			}
			if counter(proc, "sched.jobs.completed") != done+1 || counter(proc, "sched.jobs.failed") != 0 {
				t.Fatalf("setup did not lead to one successful job: %v", proc.obs.Snapshot().Counters)
			}
			enqueued := counter(proc, "sched.jobs.enqueued")
			if err := proc.runOnce(ctx); err != nil {
				t.Fatal(err)
			}
			if got := counter(proc, "sched.jobs.enqueued"); got != enqueued {
				t.Errorf("the scan after the job enqueued %d jobs, want none", got-enqueued)
			}
		})
	}
}

// TestFailedPublishIsRetried is the regression test for a publish error
// that was only logged: the job counted as done, nothing reran the
// building until its corpus changed, and the read tier kept serving the
// older version. A publish error now fails the job, and the record still
// names the old corpus, so every scan redrives the building until a
// publish lands.
func TestFailedPublishIsRetried(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	proc := newTestProcessor(t, st, 1)
	var runs atomic.Int64
	var oversized atomic.Bool
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		runs.Add(1)
		res := stubResult("Lab2", captures)
		if len(captures) > 3 {
			res.Plan.Rooms = []floorplan.Room{{ID: "r1", Center: geom.P(5, 5), Width: 2, Length: 3}}
			if oversized.Load() {
				// Bounds past the read tier's raster cap: Publish fails.
				res.Plan.Rooms = append(res.Plan.Rooms, floorplan.Room{ID: "far", Center: geom.P(1000, 5), Width: 2, Length: 2})
			}
		}
		return res, nil
	}
	ctx := context.Background()
	version := func() uint64 {
		t.Helper()
		pv, ok := proc.maps.Plan("Lab2")
		if !ok {
			t.Fatal("no served plan")
		}
		return pv.Version
	}
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if v := version(); v != 1 {
		t.Fatalf("first plan at version %d, want 1", v)
	}
	seedCaptures(t, st, "Lab2", 1, 90)
	oversized.Store(true)
	for scan := 1; scan <= 3; scan++ {
		if err := proc.runOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if got := runs.Load(); got != int64(1+scan) {
			t.Fatalf("after %d scans over the failing corpus: %d reconstructions, want %d", scan, got, 1+scan)
		}
	}
	if got := counter(proc, "mapserve.publish.errors"); got != 3 {
		t.Errorf("mapserve.publish.errors = %d, want 3", got)
	}
	if v := version(); v != 1 {
		t.Fatalf("a failed publish changed the served version to %d", v)
	}
	oversized.Store(false)
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if v := version(); v != 2 {
		t.Fatalf("served version %d once publishing works again, want 2", v)
	}
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 5 {
		t.Errorf("%d reconstructions, want 5 (none once the plan is current)", got)
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
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		atomic.AddInt32(&calls, 1)
		mu.Lock()
		lastCorpus = nil
		for _, c := range captures {
			lastCorpus = append(lastCorpus, c.Entry.ID)
		}
		mu.Unlock()
		return stubResult("Lab2", captures), nil
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
	proc.reconstruct = func(ctx context.Context, _ []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		// A shutdown interrupts key-frame extraction of the victim.
		return nil, fmt.Errorf("stage 1: %w",
			&crowdmap.CaptureError{CaptureID: victim, Err: context.Canceled})
	}
	captures, keyByID := corpusSources(t, proc, "Lab2")
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
	proc.reconstruct = func(ctx context.Context, _ []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
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
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult("Lab2", captures), nil
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
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		atomic.AddInt32(&calls, 1)
		for _, c := range captures {
			if c.Entry.ID == poison {
				return nil, &crowdmap.CaptureError{CaptureID: poison, Err: errors.New("corrupt frames")}
			}
		}
		return stubResult("Lab2", captures), nil
	}
	captures, keyByID := corpusSources(t, proc, "Lab2")
	orig := append([]crowdmap.CaptureSource(nil), captures...)
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
		if captures[i].Entry != c.Entry {
			t.Fatalf("caller slice clobbered at %d: %v != %v", i, captures[i].Entry.ID, c.Entry.ID)
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
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		if cfg.Quality == nil {
			t.Error("processor did not pass quality params to the pipeline")
		}
		return stubResult("Lab2", captures, crowdmap.Exclusion{
			CaptureID: bad,
			Stage:     crowdmap.StageQualityGate,
			Reasons:   []string{"imu_too_corrupt"},
		}), nil
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
	if !served(proc, "Lab2") {
		t.Error("degraded plan not served")
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
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult("Lab2", captures, crowdmap.Exclusion{
			CaptureID: declared, // the pipeline only knows the declared ID
			Stage:     crowdmap.StageQualityGate,
			Reasons:   []string{"imu_too_corrupt"},
		}), nil
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
	captures, keyByID := corpusSources(t, proc, "Lab2")
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
	proc.reconstruct = func(ctx context.Context, captures []crowdmap.CaptureSource, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		b := cfg.JobID
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
		return stubResult(b, captures), nil
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
		if !served(proc, b) {
			t.Errorf("no plan served for %s", b)
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
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult("Lab2", captures), nil
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
// extracts only the new capture's. The real pipeline's Result.Corpus is
// the corpus the scan fingerprints, so the scan after that job enqueues
// nothing.
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
	if got := first["crowdmapd.captures.decoded"]; got != 3 {
		t.Fatalf("first job decoded %d archives, want 3", got)
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
		// Memo hits are never decoded: the warm job decodes the upload only.
		"crowdmapd.captures.decoded": 1,
	} {
		if got := second[name] - first[name]; got != want {
			t.Errorf("second job: %s advanced by %d, want %d", name, got, want)
		}
	}
	if !served(proc, "Lab2") {
		t.Error("no plan served after the second job")
	}
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := counter(proc, "sched.jobs.enqueued"); got != 2 {
		t.Errorf("sched.jobs.enqueued = %d after the scan that follows two jobs, want 2", got)
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
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, cfg crowdmap.Config, state *crowdmap.DeltaState) (*crowdmap.Result, error) {
		if state == nil {
			return nil, errors.New("nil delta state")
		}
		if cfg.DeltaRebuildEvery != 5 {
			return nil, fmt.Errorf("DeltaRebuildEvery = %d, want 5", cfg.DeltaRebuildEvery)
		}
		b := cfg.JobID
		mu.Lock()
		states[b] = append(states[b], state)
		mu.Unlock()
		return stubResult(b, captures), nil
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

// TestProcessorDropsLegacyTrackRecords: starting a processor sweeps what
// older daemons kept beside the read tier — SVG plan documents, plan
// commit markers, and the journal records that only marked progress,
// per-capture tracks included — for every building, with or without
// captures. The pairs records, whose payload resumed runs reload, stay.
func TestProcessorDropsLegacyTrackRecords(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 20)
	journal, err := pipeline.NewJournal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"Lab1", "Lab2"} {
		for _, stage := range []string{"keyframes", "skeleton", "plan", "track/aa", "track/bb", crowdmap.StagePairs} {
			if err := journal.Complete(b, stage, "fp", []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Put(legacyPlans, b, integrity.Wrap([]byte("<svg/>"))); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(collState, "planfp/"+b, integrity.Wrap([]byte("fp"))); err != nil {
			t.Fatal(err)
		}
	}
	proc := newTestProcessor(t, st, 1)
	proc.savePairCache()
	for _, b := range []string{"Lab1", "Lab2"} {
		if got := proc.journal.Stages(b); !reflect.DeepEqual(got, []string{crowdmap.StagePairs}) {
			t.Errorf("%s stages after start = %v, want only %q", b, got, crowdmap.StagePairs)
		}
	}
	if got := st.Keys(legacyPlans); len(got) != 0 {
		t.Errorf("SVG plan documents left: %v", got)
	}
	if got := st.Keys(collState); !reflect.DeepEqual(got, []string{statePairCache}) {
		t.Errorf("state documents after start = %v, want only %q", got, statePairCache)
	}
}

// servedPlan returns the served SVG and ETag of one building.
func servedPlan(t *testing.T, proc *processor, building string) ([]byte, string) {
	t.Helper()
	pv, ok := proc.maps.Plan(building)
	if !ok {
		t.Fatal("no served plan")
	}
	return pv.SVG, pv.ETag
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
	warm := newTestProcessor(t, st, 1)
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
		cold := newTestProcessor(t, fresh, 1)
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
// that reconstructs identical content from a grown corpus leaves the
// served version alone but names the new corpus, so the scan after it
// enqueues nothing.
func TestProcessorPublishesToReadTier(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 2)
	proc := newTestProcessor(t, st, 1)
	maps := proc.maps
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, _ crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult("Lab2", captures), nil
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
	enqueued := counter(proc, "sched.jobs.enqueued")
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := counter(proc, "sched.jobs.enqueued"); got != enqueued {
		t.Errorf("scan after an unchanged publish enqueued %d jobs, want none", got-enqueued)
	}
}

// TestUploadCommitMarksBuilding: an upload through the server's handler
// enqueues its building from the commit hook, before the 201 and before
// any scan runs, once the building has enough captures; the scan after
// the job then finds nothing to do.
func TestUploadCommitMarksBuilding(t *testing.T) {
	st := store.New()
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult(cfg.JobID, captures), nil
	}
	srv, err := server.New(st, server.WithOnStored(proc.stored))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ids, archives := chaosCaptures(t, "Lab2", minCaptures)
	for i, id := range ids {
		if err := server.UploadCapture(ts.Client(), ts.URL, id, archives[i]); err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if i == minCaptures-1 {
			want = 1
		}
		if got := counter(proc, "sched.jobs.enqueued"); got != want {
			t.Fatalf("after upload %d: sched.jobs.enqueued = %d, want %d", i+1, got, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := proc.sched.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if !served(proc, "Lab2") {
		t.Fatal("no plan served after the commit-driven job")
	}
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if got := counter(proc, "sched.jobs.enqueued"); got != 1 {
		t.Errorf("the scan after the commit-driven job enqueued %d more", got-1)
	}
}

// TestStartupScanEnqueuesStaleBuilding: a processor started over a store
// whose building has no plan enqueues it at once, without waiting for a
// scan tick.
func TestStartupScanEnqueuesStaleBuilding(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", minCaptures, 2)
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult(cfg.JobID, captures), nil
	}
	q, err := queue.New(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range q.Results() {
		}
	}()
	defer q.Close()
	stop, err := proc.schedule(q, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	deadline := time.Now().Add(30 * time.Second)
	for counter(proc, "sched.jobs.enqueued") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stale building not enqueued without a scan tick")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestUploadsBeforeStartupScanWaitForIt: over a store that already held
// captures, the processor's metadata misses them until its first scan.
// Uploads committed before then must not run a job over the partial
// corpus, which would publish a plan built without the stored captures;
// the first scan marks the building with all of them.
func TestUploadsBeforeStartupScanWaitForIt(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", minCaptures, 2)
	proc := newTestProcessor(t, st, 1)
	var mu sync.Mutex
	var sizes []int
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		mu.Lock()
		sizes = append(sizes, len(captures))
		mu.Unlock()
		return stubResult(cfg.JobID, captures), nil
	}
	for i := int64(0); i < minCaptures; i++ {
		id := fmt.Sprintf("Lab2-new-%d", i)
		data := encodeWalk(t, id, "Lab2", 50+i)
		c, err := server.DecodeCapture(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(server.CollCaptures, id, data); err != nil {
			t.Fatal(err)
		}
		proc.stored(id, data, c)
	}
	if got := counter(proc, "sched.jobs.enqueued"); got != 0 {
		t.Fatalf("uploads before the first scan enqueued %d jobs, want 0", got)
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(sizes, []int{2 * minCaptures}) {
		t.Errorf("jobs ran over corpora of %v captures, want one over all %d", sizes, 2*minCaptures)
	}
}

// TestCommitHookConcurrentWithScans: uploads committed from several
// goroutines while scans run. No job may run over a corpus missing the
// captures stored before the processor was made, and once everything
// settles the served plan is current for the whole store.
func TestCommitHookConcurrentWithScans(t *testing.T) {
	st := store.New()
	seeded := seedCaptures(t, st, "Lab2", minCaptures, 2)
	proc := newTestProcessor(t, st, 2)
	var mu sync.Mutex
	var partial []int
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		have := make(map[string]bool, len(captures))
		for _, c := range captures {
			have[c.Entry.ID] = true
		}
		for _, id := range seeded {
			if !have[id] {
				mu.Lock()
				partial = append(partial, len(captures))
				mu.Unlock()
				break
			}
		}
		return stubResult(cfg.JobID, captures), nil
	}
	const uploaders, perUploader = 3, 2
	archives := make([][][]byte, uploaders)
	for u := range archives {
		for i := 0; i < perUploader; i++ {
			id := fmt.Sprintf("Lab2-up-%d-%d", u, i)
			archives[u] = append(archives[u], encodeWalk(t, id, "Lab2", int64(100+10*u+i)))
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := proc.scan(ctx); err != nil {
				t.Error(err)
			}
		}
	}()
	for u := range archives {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i, data := range archives[u] {
				id := fmt.Sprintf("Lab2-up-%d-%d", u, i)
				c, err := server.DecodeCapture(data)
				if err != nil {
					t.Error(err)
					return
				}
				if err := st.Put(server.CollCaptures, id, data); err != nil {
					t.Error(err)
					return
				}
				proc.stored(id, data, c)
			}
		}(u)
	}
	wg.Wait()
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(partial) > 0 {
		t.Errorf("jobs ran over corpora missing stored captures (sizes %v)", partial)
	}
	c := proc.corpora(nil)["Lab2"]
	if want := minCaptures + uploaders*perUploader; len(c.keys) != want {
		t.Fatalf("corpus holds %d captures, want %d", len(c.keys), want)
	}
	if !proc.maps.Current("Lab2", crowdmap.CorpusFingerprintOf(c.entries)) {
		t.Error("the served plan is not current for the whole store once uploads and scans settled")
	}
}

// TestScanReadsNoUnchangedArchive: once the scan holds every capture's
// metadata, a scan over the unchanged store compares store digests only.
// It decodes nothing and copies no capture document; either would
// allocate at least one archive's bytes.
func TestScanReadsNoUnchangedArchive(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", minCaptures, 2)
	proc := newTestProcessor(t, st, 1)
	ctx := context.Background()
	if err := proc.refreshMeta(ctx, st.Keys(server.CollCaptures)); err != nil {
		t.Fatal(err)
	}
	smallest := -1
	for _, id := range ids {
		data, _ := st.Get(server.CollCaptures, id)
		if smallest < 0 || len(data) < smallest {
			smallest = len(data)
		}
	}
	proc.mu.Lock()
	before := maps.Clone(proc.meta)
	proc.mu.Unlock()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := proc.refreshMeta(ctx, st.Keys(server.CollCaptures)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= uint64(smallest) {
		t.Errorf("a scan over an unchanged store allocated %d bytes, at least an archive (%d)", got, smallest)
	}
	proc.mu.Lock()
	defer proc.mu.Unlock()
	if !reflect.DeepEqual(proc.meta, before) {
		t.Error("a scan over an unchanged store changed the capture metadata")
	}
}

// TestScanKeepsUploadStoredAfterItsListing: the commit hook may record an
// upload's metadata while a scan runs over a key listing taken before the
// upload was stored. That scan must not forget the upload, since the job
// the hook marked takes its corpus from the metadata. Once the store no
// longer holds the upload, the scan forgets it, listed or not.
func TestScanKeepsUploadStoredAfterItsListing(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", minCaptures-1, 2)
	proc := newTestProcessor(t, st, 1)
	proc.reconstruct = func(_ context.Context, captures []crowdmap.CaptureSource, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		return stubResult(cfg.JobID, captures), nil
	}
	ctx := context.Background()
	if err := proc.refreshMeta(ctx, st.Keys(server.CollCaptures)); err != nil {
		t.Fatal(err)
	}
	listing := st.Keys(server.CollCaptures)
	const late = "Lab2-late"
	data := encodeWalk(t, late, "Lab2", 9)
	c, err := server.DecodeCapture(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(server.CollCaptures, late, data); err != nil {
		t.Fatal(err)
	}
	proc.stored(late, data, c)
	if err := proc.refreshMeta(ctx, listing); err != nil {
		t.Fatal(err)
	}
	if got := len(proc.corpora(nil)["Lab2"].keys); got != minCaptures {
		t.Fatalf("a scan over a listing older than the upload left %d captures in the corpus, want %d", got, minCaptures)
	}
	if err := st.Delete(server.CollCaptures, late); err != nil {
		t.Fatal(err)
	}
	if err := proc.refreshMeta(ctx, listing); err != nil {
		t.Fatal(err)
	}
	proc.mu.Lock()
	defer proc.mu.Unlock()
	if _, kept := proc.meta[late]; kept {
		t.Error("a scan after the upload was deleted kept its metadata")
	}
}

// TestChangedArchiveFailsJobWithoutCharge: an archive replaced after its
// metadata was read no longer matches its corpus entry. The run fails
// without a CaptureError, so the processor charges the capture nothing
// and quarantines nothing; the next scan reads the new archive and its
// job succeeds.
func TestChangedArchiveFailsJobWithoutCharge(t *testing.T) {
	st := store.New()
	ids := seedCaptures(t, st, "Lab2", minCaptures, 2)
	proc := newTestProcessor(t, st, 1)
	proc.mode = crowdmap.ModeTrajectory // the real pipeline, dead reckoning only
	sources, keyByID := corpusSources(t, proc, "Lab2")
	if err := st.Put(server.CollCaptures, ids[0], encodeWalk(t, ids[0], "Lab2", 77)); err != nil {
		t.Fatal(err)
	}
	err := proc.reconstructBuilding(context.Background(), "Lab2", sources, keyByID)
	var ce *crowdmap.CaptureError
	if err == nil || errors.As(err, &ce) {
		t.Fatalf("job over a changed archive: %v, want a plain error", err)
	}
	for _, id := range ids {
		if got := failureCount(proc, id); got != 0 {
			t.Errorf("%s charged %d failures", id, got)
		}
		if _, ok := st.Get(collDeadLetter, id); ok {
			t.Errorf("%s dead-lettered", id)
		}
	}
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !served(proc, "Lab2") || counter(proc, "sched.jobs.failed") != 0 {
		t.Errorf("the scan after the change did not rebuild the building: %v", proc.obs.Snapshot().Counters)
	}
}
