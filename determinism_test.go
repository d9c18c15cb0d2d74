package crowdmap

import (
	"context"
	"reflect"
	"testing"

	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/cloud/store"
)

// determinismCorpus builds the small Lab2 corpus shared by the determinism
// and cache regression tests. Generation is fully seeded, so every call
// returns identical content.
func determinismCorpus(t *testing.T) ([]*Capture, Config) {
	t.Helper()
	b, err := BuildingByName("Lab2")
	if err != nil {
		t.Fatal(err)
	}
	spec := DatasetSpec{
		Users:         4,
		CorridorWalks: 8,
		RoomVisits:    4,
		NightFraction: 0,
		Seed:          777,
		FPS:           2,
	}
	ds, err := GenerateDataset(b, spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Layout.Hypotheses = 800
	cfg.Seed = 7
	return ds.Captures, cfg
}

// checkSameResult asserts the parts of a Result the determinism guarantee
// covers: room observation order and content, aggregation offsets, and the
// full plan geometry. Runs of the same corpus and config must agree
// bit-for-bit, so reflect.DeepEqual (not approximate comparison) is right.
func checkSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.RoomObservations, b.RoomObservations) {
		t.Errorf("%s: RoomObservations differ (order or content)", label)
	}
	if !reflect.DeepEqual(a.Aggregation.Offsets, b.Aggregation.Offsets) {
		t.Errorf("%s: aggregation Offsets differ", label)
	}
	if !reflect.DeepEqual(a.Aggregation.Matches, b.Aggregation.Matches) {
		t.Errorf("%s: aggregation Matches differ", label)
	}
	if !reflect.DeepEqual(a.Plan.Rooms, b.Plan.Rooms) {
		t.Errorf("%s: placed rooms differ", label)
	}
	if !reflect.DeepEqual(a.Plan.HallwayShape, b.Plan.HallwayShape) {
		t.Errorf("%s: hallway shape differs", label)
	}
	if !reflect.DeepEqual(a.Plan.Trajectories, b.Plan.Trajectories) {
		t.Errorf("%s: placed trajectories differ", label)
	}
}

// TestReconstructDeterministic is the regression gate for the two
// scheduling-dependence bugs: stage-4 room observations were appended in
// goroutine completion order, and refinePlacement swept a map in Go's
// randomized iteration order. The pipeline must now produce bit-identical
// results across repeated runs and across worker counts.
func TestReconstructDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end determinism check is expensive")
	}
	captures, cfg := determinismCorpus(t)

	cfg.Workers = 1
	seq, err := Reconstruct(captures, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !raceEnabled {
		// A repeat at Workers=1 catches order dependence on map iteration
		// alone; it adds no race coverage, so skip it under the detector.
		seq2, err := Reconstruct(captures, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkSameResult(t, "workers=1 repeat", seq, seq2)
	}

	cfg.Workers = 8
	par, err := Reconstruct(captures, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSameResult(t, "workers=1 vs workers=8", seq, par)
}

// TestPairCacheWarmRun checks the incremental-aggregation contract: a
// second reconstruction of an unchanged corpus through a shared PairCache
// must skip every pair comparison (well above the required 90%) and
// produce an identical plan.
func TestPairCacheWarmRun(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end cache check is expensive")
	}
	captures, cfg := determinismCorpus(t)
	cfg.Workers = 4
	cfg.PairCache = NewPairCache(0)

	cold := NewMetricsRegistry()
	cfg.Metrics = cold
	first, err := Reconstruct(captures, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewMetricsRegistry()
	cfg.Metrics = warm
	second, err := Reconstruct(captures, cfg)
	if err != nil {
		t.Fatal(err)
	}

	n := int64(len(captures))
	pairs := n * (n - 1) / 2
	cs := cold.Snapshot().Counters
	ws := warm.Snapshot().Counters
	if cs["compare.cache.misses"] != pairs || cs["compare.cache.hits"] != 0 {
		t.Errorf("cold run: hits=%d misses=%d, want 0/%d",
			cs["compare.cache.hits"], cs["compare.cache.misses"], pairs)
	}
	if ws["compare.cache.hits"] != pairs || ws["compare.cache.misses"] != 0 {
		t.Errorf("warm run: hits=%d misses=%d, want %d/0",
			ws["compare.cache.hits"], ws["compare.cache.misses"], pairs)
	}
	if ws["compare.cache.bypass"] != 0 {
		t.Errorf("warm run bypassed the cache %d times", ws["compare.cache.bypass"])
	}
	checkSameResult(t, "cold vs warm cache", first, second)
}

// TestRestartMidJobResume is the stage-level resume acceptance test: a
// reconstruction that checkpointed its pair-comparison stage and then
// "died" is resumed by a fresh process (new PairCache, same journal), and
// the resumed run must (a) reload every pair decision from the checkpoint
// payload — zero cache misses — and (b) produce a result
// reflect.DeepEqual to an uninterrupted run.
func TestRestartMidJobResume(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end resume check is expensive")
	}
	captures, cfg := determinismCorpus(t)
	cfg.Workers = 4

	// Reference: an uninterrupted run (no checkpointing at all).
	ref, err := Reconstruct(captures, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// First attempt: runs to completion while checkpointing. The "crash"
	// happens after it — what matters is that the journal now holds the
	// pairs record a death after aggregation would have left behind (the
	// stage is checkpointed as it finishes, not at the end of the run).
	st := store.New()
	journal, err := pipeline.NewJournal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.JobID = "Lab2"
	cfg.Checkpoints = journal
	cfg.PairCache = NewPairCache(0)
	if _, err := ReconstructContext(context.Background(), captures, cfg); err != nil {
		t.Fatal(err)
	}
	fp := CorpusFingerprint(captures)
	if !journal.Completed("Lab2", StagePairs, fp) {
		t.Fatalf("stage %s not checkpointed", StagePairs)
	}
	// Only the stage whose payload a resumed run reloads is journaled.
	if got := journal.Stages("Lab2"); len(got) != 1 || got[0] != StagePairs {
		t.Fatalf("journaled stages = %v, want only %q", got, StagePairs)
	}

	// Restart: a fresh journal over the surviving store and an EMPTY pair
	// cache, exactly what a rebooted daemon has.
	journal2, err := pipeline.NewJournal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumedReg := NewMetricsRegistry()
	cfg.Checkpoints = journal2
	cfg.PairCache = NewPairCache(0)
	cfg.Metrics = resumedReg
	resumed, err := ReconstructContext(context.Background(), captures, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every pair decision must come from the checkpoint payload.
	rs := resumedReg.Snapshot().Counters
	n := int64(len(captures))
	pairs := n * (n - 1) / 2
	if rs["compare.cache.hits"] != pairs || rs["compare.cache.misses"] != 0 {
		t.Errorf("resumed run: hits=%d misses=%d, want %d/0 (decisions reloaded from checkpoint)",
			rs["compare.cache.hits"], rs["compare.cache.misses"], pairs)
	}
	checkSameResult(t, "uninterrupted vs resumed", ref, resumed)

	// A changed corpus must NOT resume from stale checkpoints.
	if journal2.Completed("Lab2", StagePairs, CorpusFingerprint(captures[:len(captures)-1])) {
		t.Error("checkpoint accepted for a different corpus")
	}
}
