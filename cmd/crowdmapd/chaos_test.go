package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"crowdmap"
	"crowdmap/internal/cloud/faultfs"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/crowd"
	"crowdmap/internal/geom"
	"crowdmap/internal/mathx"
	"crowdmap/internal/world"
)

// chaosReconstruct is a deterministic corpus-dependent reconstruction
// stub: the plan mask is derived from the corpus fingerprint, so a plan
// built from the wrong capture set renders different bytes and the
// DeepEqual-against-clean-run invariant has teeth. It checkpoints the
// plan stage like the real pipeline.
func chaosReconstruct(_ context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config, _ *crowdmap.DeltaState) (*crowdmap.Result, error) {
	fp := crowdmap.CorpusFingerprint(captures)
	res := stubResult(cfg.JobID)
	mask := res.Plan.HallwayMask
	for i := range mask.Cells {
		mask.Cells[i] = fp[i%len(fp)]&1 == 1
	}
	_ = cfg.Checkpoints.Complete(cfg.JobID, crowdmap.StagePlan, fp, nil)
	return res, nil
}

// chaosCaptures pre-encodes n upload archives for one building.
func chaosCaptures(t *testing.T, building string, n int) (ids []string, archives [][]byte) {
	t.Helper()
	users, err := crowd.NewPopulation(1, 0, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := crowd.NewGenerator(world.Lab2())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s-chaos-%d", building, i)
		c, err := gen.SWS(id, users[0], geom.P(3, 7.5), geom.P(14, 7.5), mathx.NewRNG(int64(900+i)))
		if err != nil {
			t.Fatal(err)
		}
		c.Geo.Building = building
		data, err := server.EncodeCapture(c)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		archives = append(archives, data)
	}
	return ids, archives
}

// chaosProcessor builds a started processor (journal + mapserve read tier
// over st) without registering any test cleanup: the chaos loop opens and
// closes one per simulated process lifetime.
func chaosProcessor(t *testing.T, st *store.Store) *processor {
	t.Helper()
	proc := newProcessor(st, 100, 1)
	proc.obs = crowdmap.NewMetricsRegistry()
	journal, err := pipeline.NewJournal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	proc.journal = journal
	if err := proc.start(1); err != nil {
		t.Fatal(err)
	}
	maps, err := mapserve.New(st, mapserve.WithObs(proc.obs))
	if err != nil {
		t.Fatal(err)
	}
	proc.maps = maps
	proc.reconstruct = chaosReconstruct
	proc.loadPairCache()
	return proc
}

// cleanRunPlan reconstructs the given acknowledged corpus on a pristine
// in-memory store and returns the stored plan payload and served ETag —
// the reference a chaos survivor must match byte for byte.
func cleanRunPlan(t *testing.T, building string, ids []string, archives map[string][]byte) ([]byte, string) {
	t.Helper()
	st := store.New()
	for _, id := range ids {
		if err := st.Put(server.CollCaptures, id, archives[id]); err != nil {
			t.Fatal(err)
		}
	}
	proc := chaosProcessor(t, st)
	defer proc.sched.Close()
	if err := proc.runOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	svg, ok, err := proc.keep.Get(server.CollPlans, building)
	if err != nil || !ok {
		t.Fatalf("clean run produced no plan: (%v, %v)", ok, err)
	}
	pv, ok := proc.maps.Plan(building)
	if !ok {
		t.Fatal("clean run served no plan")
	}
	return svg, pv.ETag
}

// corruptRandomArtifact flips one bit in a randomly chosen derived
// artifact (never a capture: uploads are the source of truth that repair
// recomputes everything else from). Returns what it hit, or "" if nothing
// derived exists yet.
func corruptRandomArtifact(t *testing.T, st *store.Store, rng *rand.Rand) string {
	t.Helper()
	type doc struct{ coll, key string }
	var docs []doc
	for _, coll := range []string{server.CollPlans, mapserve.CollServe, pipeline.CheckpointColl, collState} {
		for _, key := range st.Keys(coll) {
			docs = append(docs, doc{coll, key})
		}
	}
	if len(docs) == 0 {
		return ""
	}
	d := docs[rng.Intn(len(docs))]
	raw, _ := st.Get(d.coll, d.key)
	mut := append([]byte(nil), raw...)
	mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
	if err := st.Put(d.coll, d.key, mut); err != nil {
		t.Fatal(err)
	}
	return d.coll + "/" + d.key
}

// TestChaosKillCorruptRestart is the randomized chaos harness: each
// iteration uploads one capture, then either crashes the process at a
// random byte of subsequent WAL writes, silently corrupts a random
// persisted artifact, or does nothing — and restarts. After every
// recovery the invariants must hold:
//
//  1. every acknowledged upload is still present,
//  2. the served plan is byte-identical to a clean run over exactly the
//     acknowledged corpus (corrupt bytes are never served),
//  3. the served plan version never regresses.
func TestChaosKillCorruptRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos harness is slow; skipped with -short")
	}
	const building = "Lab2"
	ids, archives := chaosCaptures(t, building, 6)
	byID := make(map[string][]byte, len(ids))
	for i, id := range ids {
		byID[id] = archives[i]
	}

	dir := t.TempDir()
	flaky := faultfs.NewFlaky(faultfs.Dir(dir))
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()

	var acked []string
	var lastVersion uint64
	for i, id := range ids {
		// --- faulty process lifetime -------------------------------------
		w, err := store.OpenWAL(dir, store.WALFS(flaky))
		if err != nil {
			t.Fatalf("iter %d: clean open failed: %v", i, err)
		}
		st := w.Store()
		proc := chaosProcessor(t, st)

		// Upload before the fault arms: Put returning nil is the ack, and
		// with SyncAlways an acked record is durable.
		if err := st.Put(server.CollCaptures, id, byID[id]); err == nil {
			acked = append(acked, id)
		}

		action := [3]string{"kill", "corrupt", "clean"}[i%3]
		switch action {
		case "kill":
			flaky.FailWritesAfter(rng.Int63n(4096))
		case "corrupt":
			if hit := corruptRandomArtifact(t, st, rng); hit != "" {
				t.Logf("iter %d: corrupted %s", i, hit)
			}
		}
		// Processing may fail mid-flight under an armed fault; that is the
		// crash being simulated.
		_ = proc.runOnce(ctx)
		_ = proc.scrub(ctx)
		proc.sched.Close()
		_ = w.Close()
		flaky.HealWrites()
		flaky.HealReads()

		// --- recovery process lifetime -----------------------------------
		w2, err := store.OpenWAL(dir, store.WALFS(flaky))
		if err != nil {
			t.Fatalf("iter %d (%s): recovery open failed: %v", i, action, err)
		}
		st2 := w2.Store()
		proc2 := chaosProcessor(t, st2)
		if err := proc2.runOnce(ctx); err != nil {
			t.Fatalf("iter %d (%s): recovery runOnce: %v", i, action, err)
		}
		if err := proc2.scrub(ctx); err != nil {
			t.Fatalf("iter %d (%s): recovery scrub: %v", i, action, err)
		}
		if err := proc2.sched.Wait(ctx); err != nil {
			t.Fatalf("iter %d (%s): recovery wait: %v", i, action, err)
		}

		// Invariant 1: acknowledged uploads survive.
		for _, a := range acked {
			if _, ok := st2.Get(server.CollCaptures, a); !ok {
				t.Fatalf("iter %d (%s): acked upload %s lost", i, action, a)
			}
		}
		// The processor holds off below 3 captures; the plan invariants
		// apply once the acknowledged corpus crosses that threshold.
		if len(acked) < 3 {
			proc2.sched.Close()
			if err := w2.Close(); err != nil {
				t.Fatalf("iter %d (%s): clean close: %v", i, action, err)
			}
			continue
		}
		// Invariant 2: the plan equals a clean run over the acked corpus,
		// both the stored document and the served version (by ETag).
		want, wantETag := cleanRunPlan(t, building, acked, byID)
		got, ok, err := proc2.keep.Get(server.CollPlans, building)
		if err != nil || !ok {
			t.Fatalf("iter %d (%s): plan unreadable after recovery: (%v, %v)", i, action, ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d (%s): recovered plan diverges from clean run (%d vs %d bytes)",
				i, action, len(got), len(want))
		}
		// Invariant 3: the served version never regresses, and the read
		// tier verifies end to end.
		pv, ok := proc2.maps.Plan(building)
		if !ok {
			t.Fatalf("iter %d (%s): read tier serves no plan", i, action)
		}
		if pv.ETag != wantETag {
			t.Fatalf("iter %d (%s): served plan diverges from clean run (etag %.12s vs %.12s)",
				i, action, pv.ETag, wantETag)
		}
		if pv.Version < lastVersion {
			t.Fatalf("iter %d (%s): served version regressed %d -> %d", i, action, lastVersion, pv.Version)
		}
		lastVersion = pv.Version
		if published, err := proc2.maps.Verify(building); !published || err != nil {
			t.Fatalf("iter %d (%s): read tier unhealthy: (%v, %v)", i, action, published, err)
		}

		proc2.sched.Close()
		if err := w2.Close(); err != nil {
			t.Fatalf("iter %d (%s): clean close: %v", i, action, err)
		}
	}
	if len(acked) != len(ids) {
		t.Fatalf("only %d/%d uploads acknowledged (all Puts ran unfaulted)", len(acked), len(ids))
	}
}
