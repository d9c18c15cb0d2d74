package main

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"

	"crowdmap"
	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/store"
)

// corruptStoredDoc flips one bit of a stored document, simulating silent
// rot under the WAL (whose frame CRCs only cover the log, not documents
// rewritten later).
func corruptStoredDoc(t *testing.T, st *store.Store, coll, key string) {
	t.Helper()
	raw, ok := st.Get(coll, key)
	if !ok {
		t.Fatalf("no document %s/%s to corrupt", coll, key)
	}
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 0x08
	if err := st.Put(coll, key, mut); err != nil {
		t.Fatal(err)
	}
}

// checkpointingStub returns a reconstruct stub that journals the pairs
// stage like the real pipeline does (the one record it writes), so the
// scrubber walks realistic checkpoint state.
func checkpointingStub(runs *atomic.Int64) func(context.Context, []crowdmap.CaptureSource, crowdmap.Config, *crowdmap.DeltaState) (*crowdmap.Result, error) {
	return func(_ context.Context, captures []crowdmap.CaptureSource, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
		runs.Add(1)
		res := stubResult(cfg.JobID, captures)
		_ = cfg.Checkpoints.Complete(cfg.JobID, crowdmap.StagePairs, res.Corpus, []byte("{}"))
		return res, nil
	}
}

// TestScanRepairsCorruptPlan: once a corpus is reconstructed, further
// scans skip it — until its read-tier plan record rots and a verified
// read quarantines it. The building is then no longer current, the scan
// redrives it, and the job republishes the same version under the same
// ETag as a repair. Under one corpus this works as often as the record
// rots.
func TestScanRepairsCorruptPlan(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 40)
	proc := newTestProcessor(t, st, 1)
	var runs atomic.Int64
	proc.reconstruct = checkpointingStub(&runs)

	ctx := context.Background()
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("first cycle ran %d jobs, want 1", runs.Load())
	}
	// Unchanged corpus, intact artifacts: the next cycle is a no-op.
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("steady-state cycle re-ran reconstruction (%d runs)", runs.Load())
	}
	want, _ := proc.maps.Plan("Lab2")

	for round := int64(1); round <= 2; round++ {
		corruptStoredDoc(t, st, mapserve.CollServe, "Lab2/plan")
		// A verified read (here Verify, as the scrubber runs it) finds
		// the rot and quarantines the record.
		if _, err := proc.maps.Verify("Lab2"); err == nil {
			t.Fatalf("round %d: rotten plan record verified", round)
		}
		if err := proc.runOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if runs.Load() != 1+round {
			t.Fatalf("round %d: corruption did not redrive the job (%d runs)", round, runs.Load())
		}
		if published, err := proc.maps.Verify("Lab2"); !published || err != nil {
			t.Fatalf("round %d: plan not repaired: (%v, %v)", round, published, err)
		}
		if got, _ := proc.maps.Plan("Lab2"); got.PlanVersion != want.PlanVersion || !bytes.Equal(got.SVG, want.SVG) {
			t.Fatalf("round %d: repair served %+v, want %+v and the same SVG", round, got.PlanVersion, want.PlanVersion)
		}
		c := proc.obs.Snapshot().Counters
		if c["mapserve.publish.repaired"] != round {
			t.Fatalf("round %d: mapserve.publish.repaired = %d", round, c["mapserve.publish.repaired"])
		}
		if c["integrity.repaired"] == 0 || c["integrity.quarantined"] == 0 {
			t.Fatalf("integrity counters not advanced: %v", c)
		}
		if _, ok := st.Get(integrity.QuarantineColl, mapserve.CollServe+"/Lab2/plan"); !ok {
			t.Fatal("corrupt plan record not quarantined")
		}
		// Repaired state is steady again.
		if err := proc.runOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if runs.Load() != 1+round {
			t.Fatalf("round %d: post-repair cycle re-ran reconstruction (%d runs)", round, runs.Load())
		}
	}
}

// TestScrubDetectsAndRepairs: a scrub pass over a store with a rotten
// read-tier plan record and a rotten pair-cache export quarantines both,
// counts them on scrub.*, and redrives the owning building so every
// artifact verifies again afterward.
func TestScrubDetectsAndRepairs(t *testing.T) {
	st := store.New()
	seedCaptures(t, st, "Lab2", 3, 60)
	proc := newTestProcessor(t, st, 1)
	maps := proc.maps
	var runs atomic.Int64
	proc.reconstruct = checkpointingStub(&runs)

	ctx := context.Background()
	if err := proc.runOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if published, err := maps.Verify("Lab2"); !published || err != nil {
		t.Fatalf("read tier unhealthy after first cycle: (%v, %v)", published, err)
	}
	want, _ := maps.Plan("Lab2")

	corruptStoredDoc(t, st, collState, statePairCache)
	corruptStoredDoc(t, st, mapserve.CollServe, "Lab2/plan")
	if err := proc.scrub(ctx); err != nil {
		t.Fatal(err)
	}
	// scrub quarantined the rot and kicked a scan; wait for the repair job.
	if err := proc.sched.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	c := proc.obs.Snapshot().Counters
	if c["scrub.passes"] != 1 {
		t.Fatalf("scrub.passes = %d, want 1", c["scrub.passes"])
	}
	if c["scrub.corrupt"] < 2 {
		t.Fatalf("scrub.corrupt = %d, want >= 2", c["scrub.corrupt"])
	}
	if c["scrub.docs"] < 3 {
		t.Fatalf("scrub.docs = %d, want >= 3", c["scrub.docs"])
	}
	if runs.Load() != 2 {
		t.Fatalf("scrub did not redrive the building (%d runs)", runs.Load())
	}
	if got, ok := maps.Plan("Lab2"); !ok || got.PlanVersion != want.PlanVersion || !bytes.Equal(got.SVG, want.SVG) {
		t.Fatalf("plan not repaired after scrub: %+v, want %+v and the same SVG", got.PlanVersion, want.PlanVersion)
	}
	if published, err := maps.Verify("Lab2"); !published || err != nil {
		t.Fatalf("read tier not repaired after scrub: (%v, %v)", published, err)
	}
	// A clean follow-up pass finds nothing.
	if err := proc.scrub(ctx); err != nil {
		t.Fatal(err)
	}
	c = proc.obs.Snapshot().Counters
	if c["scrub.passes"] != 2 {
		t.Fatalf("scrub.passes = %d, want 2", c["scrub.passes"])
	}
	if got := c["scrub.corrupt"]; got != 2 {
		t.Fatalf("clean pass found new corruption (scrub.corrupt = %d)", got)
	}
}

// TestPairCacheCorruptionStartsCold: a rotten pair-cache export is
// quarantined at load and the cache starts cold instead of poisoned —
// for both a broken envelope and a valid envelope over unparsable JSON.
func TestPairCacheCorruptionStartsCold(t *testing.T) {
	st := store.New()
	proc := newTestProcessor(t, st, 1)
	proc.savePairCache()
	corruptStoredDoc(t, st, collState, statePairCache)
	proc.loadPairCache()
	c := proc.obs.Snapshot().Counters
	if c["paircache.load.corrupt"] != 1 {
		t.Fatalf("paircache.load.corrupt = %d, want 1", c["paircache.load.corrupt"])
	}
	if _, ok := st.Get(collState, statePairCache); ok {
		t.Fatal("corrupt pair cache left in place")
	}

	// Valid envelope, garbage JSON: quarantined just the same.
	if err := proc.keep.Put(collState, statePairCache, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	proc.loadPairCache()
	if got := proc.obs.Snapshot().Counters["paircache.load.corrupt"]; got != 2 {
		t.Fatalf("paircache.load.corrupt = %d, want 2", got)
	}
	if _, ok := st.Get(collState, statePairCache); ok {
		t.Fatal("unparsable pair cache left in place")
	}
	// The cache still works and can re-checkpoint cleanly.
	proc.savePairCache()
	proc.loadPairCache()
}
