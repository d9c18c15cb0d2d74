package crowdmap

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"crowdmap/internal/mathx"
)

// deltaCorpus generates a small fully-seeded Lab2 capture pool for the
// incremental-reconstruction tests. Different seeds produce pools with
// the same capture IDs but different content — exactly what a modified
// re-upload looks like.
func deltaCorpus(t *testing.T, seed int64) ([]*Capture, Config) {
	t.Helper()
	b, err := BuildingByName("Lab2")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(b, DatasetSpec{
		Users:         3,
		CorridorWalks: 5,
		RoomVisits:    2,
		NightFraction: 0,
		Seed:          seed,
		FPS:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Layout.Hypotheses = 400
	cfg.Seed = 7
	cfg.Workers = 4
	return ds.Captures, cfg
}

// checkSameOutcome extends checkSameResult with the degraded-mode
// surface: exclusions and room-failure reasons must match too (failures
// memoize as messages, so compare by string).
func checkSameOutcome(t *testing.T, label string, delta, full *Result) {
	t.Helper()
	checkSameResult(t, label, delta, full)
	if !reflect.DeepEqual(delta.Excluded, full.Excluded) {
		t.Errorf("%s: exclusions differ:\n delta %+v\n full  %+v", label, delta.Excluded, full.Excluded)
	}
	if len(delta.RoomFailures) != len(full.RoomFailures) {
		t.Errorf("%s: %d room failures vs %d", label, len(delta.RoomFailures), len(full.RoomFailures))
	}
	for id, derr := range delta.RoomFailures {
		ferr, ok := full.RoomFailures[id]
		if !ok {
			t.Errorf("%s: delta-only room failure for %s: %v", label, id, derr)
			continue
		}
		if derr.Error() != ferr.Error() {
			t.Errorf("%s: room failure for %s differs: %q vs %q", label, id, derr, ferr)
		}
	}
}

// TestDeltaMatchesFullRebuild is the incremental-reconstruction
// acceptance test: a DeltaState driven through a randomized sequence of
// corpus changes — add, remove (the daemon's quarantine path is exactly a
// removal), modify, re-add — must produce, at every prefix, a result
// reflect.DeepEqual to a fresh full rebuild over the same corpus.
func TestDeltaMatchesFullRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end delta equivalence check is expensive")
	}
	pool, cfg := deltaCorpus(t, 777)
	modified, _ := deltaCorpus(t, 778) // same IDs, different content
	rng := mathx.NewRNG(42)

	corpus := append([]*Capture(nil), pool[:4]...)
	spare := append([]*Capture(nil), pool[4:]...)
	state := NewDeltaState()
	ctx := context.Background()

	// Every operation gets exercised at least once; the order and the
	// affected captures are randomized.
	ops := []string{"add", "remove", "modify", "add", "readd", "modify"}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	var lastRemoved *Capture
	totalReused := int64(0)
	for step, op := range ops {
		switch op {
		case "add":
			if len(spare) > 0 {
				corpus = append(corpus, spare[0])
				spare = spare[1:]
			}
		case "remove":
			i := rng.Intn(len(corpus))
			lastRemoved = corpus[i]
			corpus = append(corpus[:i:i], corpus[i+1:]...)
		case "readd":
			if lastRemoved != nil {
				corpus = append(corpus, lastRemoved)
				lastRemoved = nil
			}
		case "modify":
			i := rng.Intn(len(corpus))
			for _, m := range modified {
				if m.ID == corpus[i].ID {
					corpus[i] = m
					break
				}
			}
		}
		label := fmt.Sprintf("step %d (%s, %d captures)", step, op, len(corpus))

		dreg := NewMetricsRegistry()
		dcfg := cfg
		dcfg.Metrics = dreg
		dres, err := ReconstructDelta(ctx, corpus, dcfg, state)
		if err != nil {
			t.Fatalf("%s: delta: %v", label, err)
		}
		fcfg := cfg
		fcfg.Metrics = NewMetricsRegistry()
		fres, err := Reconstruct(corpus, fcfg)
		if err != nil {
			t.Fatalf("%s: full rebuild: %v", label, err)
		}
		checkSameOutcome(t, label, dres, fres)

		dc := dreg.Snapshot().Counters
		totalReused += dc["reconstruct.delta.tracks.reused"]
		if step > 0 && dc["reconstruct.delta.tracks.reused"] == 0 {
			t.Errorf("%s: no tracks reused — delta ran as a full rebuild", label)
		}
	}
	if totalReused == 0 {
		t.Fatal("delta state never reused a track across the whole sequence")
	}
}

// TestDeltaMatchesFullRebuildModes extends the delta-equivalence pin to
// the new routing modes: an evolving mixed-mode corpus — IMU-only
// captures in trajectory mode, a gate-rejected-video capture in hybrid
// mode — must, at every prefix, produce a delta result reflect.DeepEqual
// to a fresh full rebuild. This is what the mode-aware memo signature
// (delta-v2) protects: a memoized vision track must never leak into a
// trajectory-routed run or vice versa.
func TestDeltaMatchesFullRebuildModes(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end delta equivalence check is expensive")
	}
	pool, cfg := deltaCorpus(t, 777)
	modified, _ := deltaCorpus(t, 778)

	cases := []struct {
		name string
		mode Mode
		prep func([]*Capture) []*Capture
	}{
		{"trajectory", ModeTrajectory, imuOnly},
		{"hybrid", ModeHybrid, func(caps []*Capture) []*Capture {
			// Seed a capture whose video the gate rejects: its trajectory
			// rescue must memoize and replay exactly like any other track.
			out := append([]*Capture(nil), caps...)
			out[0] = badVideoCapture(out[0], out[0].ID)
			return out
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mcfg := cfg
			mcfg.Mode = tc.mode
			corpus := tc.prep(append([]*Capture(nil), pool[:4]...))
			spare := tc.prep(append([]*Capture(nil), pool[4:]...))
			mmod := tc.prep(append([]*Capture(nil), modified...))
			state := NewDeltaState()
			reused := int64(0)
			for step, op := range []string{"add", "modify", "remove", "add"} {
				switch op {
				case "add":
					corpus = append(corpus, spare[0])
					spare = spare[1:]
				case "remove":
					corpus = append(corpus[:1:1], corpus[2:]...)
				case "modify":
					i := len(corpus) - 1
					for _, m := range mmod {
						if m.ID == corpus[i].ID {
							corpus[i] = m
							break
						}
					}
				}
				label := fmt.Sprintf("%s step %d (%s, %d captures)", tc.name, step, op, len(corpus))
				dreg := NewMetricsRegistry()
				dcfg := mcfg
				dcfg.Metrics = dreg
				dres, err := ReconstructDelta(ctx, corpus, dcfg, state)
				if err != nil {
					t.Fatalf("%s: delta: %v", label, err)
				}
				fcfg := mcfg
				fcfg.Metrics = NewMetricsRegistry()
				fres, err := Reconstruct(corpus, fcfg)
				if err != nil {
					t.Fatalf("%s: full rebuild: %v", label, err)
				}
				checkSameOutcome(t, label, dres, fres)
				reused += dreg.Snapshot().Counters["reconstruct.delta.tracks.reused"]
			}
			if reused == 0 {
				t.Fatalf("%s: delta state never reused a track", tc.name)
			}
		})
	}
}

// TestDeltaRebuildBackstopAndConfigFlush covers the two state-reset
// paths: the periodic full-rebuild backstop and the config-signature
// mismatch. Both must flush the memos (visible on the metrics) and still
// produce results identical to a fresh full rebuild.
func TestDeltaRebuildBackstopAndConfigFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end delta reset check is expensive")
	}
	corpus, cfg := deltaCorpus(t, 777)
	corpus = corpus[:4]
	cfg.DeltaRebuildEvery = 2
	ctx := context.Background()
	state := NewDeltaState()

	counters := func(run int) map[string]int64 {
		reg := NewMetricsRegistry()
		c := cfg
		c.Metrics = reg
		res, err := ReconstructDelta(ctx, corpus, c, state)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		fc := cfg
		fc.Metrics = NewMetricsRegistry()
		full, err := Reconstruct(corpus, fc)
		if err != nil {
			t.Fatalf("run %d: full: %v", run, err)
		}
		checkSameOutcome(t, fmt.Sprintf("run %d", run), res, full)
		return reg.Snapshot().Counters
	}

	c0 := counters(0) // cold: everything extracted
	if c0["reconstruct.delta.tracks.extracted"] != int64(len(corpus)) {
		t.Errorf("cold run extracted %d, want %d", c0["reconstruct.delta.tracks.extracted"], len(corpus))
	}
	c1 := counters(1) // warm: everything reused
	if c1["reconstruct.delta.tracks.reused"] != int64(len(corpus)) || c1["reconstruct.delta.tracks.extracted"] != 0 {
		t.Errorf("warm run: reused=%d extracted=%d, want %d/0",
			c1["reconstruct.delta.tracks.reused"], c1["reconstruct.delta.tracks.extracted"], len(corpus))
	}
	c2 := counters(2) // backstop: cycles hit DeltaRebuildEvery, memos flushed
	if c2["reconstruct.delta.full_rebuilds"] != 1 {
		t.Errorf("full_rebuilds = %d on the backstop run, want 1", c2["reconstruct.delta.full_rebuilds"])
	}
	if c2["reconstruct.delta.tracks.extracted"] != int64(len(corpus)) {
		t.Errorf("backstop run extracted %d, want %d (memos flushed)",
			c2["reconstruct.delta.tracks.extracted"], len(corpus))
	}

	// Config change: the state must notice and flush.
	cfg.Seed++
	c3 := counters(3)
	if c3["reconstruct.delta.config_flushes"] != 1 {
		t.Errorf("config_flushes = %d after a seed change, want 1", c3["reconstruct.delta.config_flushes"])
	}

	// Nil state degrades to plain reconstruction.
	res, err := ReconstructDelta(ctx, corpus, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fc := cfg
	fc.Metrics = NewMetricsRegistry()
	full, err := Reconstruct(corpus, fc)
	if err != nil {
		t.Fatal(err)
	}
	checkSameOutcome(t, "nil state", res, full)
}
