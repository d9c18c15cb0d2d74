package mapserve

import (
	"errors"
	"testing"

	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/obs"
)

// corruptDoc flips one payload bit of a stored document in place, leaving
// the integrity envelope's recorded digest stale — the shape of silent
// bit rot under the WAL (which only protects its own frames).
func corruptDoc(t *testing.T, st *store.Store, coll, key string) {
	t.Helper()
	raw, ok := st.Get(coll, key)
	if !ok {
		t.Fatalf("no document %s/%s to corrupt", coll, key)
	}
	mut := append([]byte(nil), raw...)
	mut[len(mut)-1] ^= 0x40
	if err := st.Put(coll, key, mut); err != nil {
		t.Fatal(err)
	}
}

// TestPublishRepairsCorruptPlanRecord: a warm service whose on-disk plan
// record rots re-publishes the same reconstruction as a same-version,
// same-ETag repair — not a new version — and the corrupt bytes land in
// quarantine, never in a response.
func TestPublishRepairsCorruptPlanRecord(t *testing.T) {
	f := fixture(t)
	st := store.New()
	reg := obs.New()
	s := newTestService(t, st, WithObs(reg))
	v1, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	corruptDoc(t, st, CollServe, planKey(fixBuilding))

	v2, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != v1.Version || v2.ETag != v1.ETag {
		t.Fatalf("repair changed identity: %+v -> %+v", v1, v2)
	}
	c := reg.Snapshot().Counters
	if c["mapserve.publish.repaired"] != 1 {
		t.Fatalf("mapserve.publish.repaired = %d, want 1", c["mapserve.publish.repaired"])
	}
	if c["integrity.repaired"] != 1 {
		t.Fatalf("integrity.repaired = %d, want 1", c["integrity.repaired"])
	}
	if c["integrity.quarantined"] == 0 {
		t.Fatal("corrupt record was not quarantined")
	}
	if _, ok := st.Get(integrity.QuarantineColl, CollServe+"/"+planKey(fixBuilding)); !ok {
		t.Fatal("quarantine collection missing the corrupt record")
	}
	// The rewritten record must verify and serve cold.
	cold := newTestService(t, st)
	pv, ok := cold.Plan(fixBuilding)
	if !ok || pv.Version != v1.Version || pv.ETag != v1.ETag {
		t.Fatalf("cold read after repair: ok=%v version=%d etag=%s", ok, pv.Version, pv.ETag)
	}
}

// TestPublishRepairsMissingIndex: losing the localization-index document
// alone also takes the repair path and restores locate service.
func TestPublishRepairsMissingIndex(t *testing.T) {
	f := fixture(t)
	st := store.New()
	reg := obs.New()
	s := newTestService(t, st, WithObs(reg))
	v1, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(CollServe, indexKey(fixBuilding, v1.ETag)); err != nil {
		t.Fatal(err)
	}
	v2, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 {
		t.Fatalf("repair changed identity: %+v -> %+v", v1, v2)
	}
	if reg.Snapshot().Counters["mapserve.publish.repaired"] != 1 {
		t.Fatal("repair not counted")
	}
	frame, imu := queryFrame(t, f, 0)
	res, err := s.Locate(fixBuilding, frame.Image, imu)
	if err != nil || !res.Located {
		t.Fatalf("locate after index repair: %+v, %v", res, err)
	}
}

// TestVersionFloorSurvivesRecordLoss: when the plan record is corrupted
// and the daemon restarts cold (no in-memory pointer), the version-floor
// document keeps the republished version strictly above everything a
// client may have cached.
func TestVersionFloorSurvivesRecordLoss(t *testing.T) {
	f := fixture(t)
	st := store.New()
	s := newTestService(t, st)
	if _, err := s.Publish(fixBuilding, f.res); err != nil {
		t.Fatal(err)
	}
	v2, err := s.Publish(fixBuilding, changedResult(f))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != 2 {
		t.Fatalf("setup version = %d, want 2", v2.Version)
	}
	corruptDoc(t, st, CollServe, planKey(fixBuilding))

	cold := newTestService(t, st)
	if _, ok := cold.Plan(fixBuilding); ok {
		t.Fatal("corrupt record served cold")
	}
	// Verify still knows the building existed and reports the damage.
	published, verr := cold.Verify(fixBuilding)
	if !published || verr == nil {
		t.Fatalf("Verify = (%v, %v), want (true, error)", published, verr)
	}
	v3, err := cold.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Version <= v2.Version {
		t.Fatalf("version regressed after record loss: %d -> %d", v2.Version, v3.Version)
	}
}

// TestLocateCorruptIndexKeepsPlanServing: index rot makes a cold Locate
// (a restarted service, which loads the index from the store) fail with
// the typed unavailability sentinel while the plan keeps serving. The
// publishing service keeps answering from the index it built in memory,
// which the rot on disk cannot reach.
func TestLocateCorruptIndexKeepsPlanServing(t *testing.T) {
	f := fixture(t)
	st := store.New()
	s := newTestService(t, st)
	v, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	corruptDoc(t, st, CollServe, indexKey(fixBuilding, v.ETag))

	frame, imu := queryFrame(t, f, 0)
	if res, err := s.Locate(fixBuilding, frame.Image, imu); err != nil || !res.Located {
		t.Fatalf("warm locate over the seeded index: %+v, %v", res, err)
	}
	reg := obs.New()
	cold := newTestService(t, st, WithObs(reg))
	if _, err := cold.Locate(fixBuilding, frame.Image, imu); !errors.Is(err, ErrIndexUnavailable) {
		t.Fatalf("locate error = %v, want ErrIndexUnavailable", err)
	}
	if reg.Snapshot().Counters["mapserve.index.corrupt"] != 1 {
		t.Fatal("index corruption not counted")
	}
	if _, ok := cold.Plan(fixBuilding); !ok {
		t.Fatal("plan stopped serving after index corruption")
	}
}

// TestVerifyStates walks the Verify contract: unpublished, intact, and
// corrupt-index buildings.
func TestVerifyStates(t *testing.T) {
	f := fixture(t)
	st := store.New()
	s := newTestService(t, st)
	if published, err := s.Verify("never-built"); published || err != nil {
		t.Fatalf("unpublished: (%v, %v), want (false, nil)", published, err)
	}
	v, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if published, err := s.Verify(fixBuilding); !published || err != nil {
		t.Fatalf("intact: (%v, %v), want (true, nil)", published, err)
	}
	corruptDoc(t, st, CollServe, indexKey(fixBuilding, v.ETag))
	if published, err := s.Verify(fixBuilding); !published || err == nil {
		t.Fatalf("corrupt index: (%v, %v), want (true, error)", published, err)
	}
	// Verify quarantined the index; a second Verify reports it missing.
	if published, err := s.Verify(fixBuilding); !published || err == nil {
		t.Fatalf("missing index: (%v, %v), want (true, error)", published, err)
	}
}

// TestStoredStates walks the presence check the scan asks every tick:
// rot it cannot see, but quarantine (by a verified read or the
// scrubber) removes the document and flips it, also after a restart.
func TestStoredStates(t *testing.T) {
	f := fixture(t)
	st := store.New()
	s := newTestService(t, st)
	check := func(label string, s *Service, wantPublished, wantPresent bool) {
		t.Helper()
		if published, present := s.Stored(fixBuilding); published != wantPublished || present != wantPresent {
			t.Fatalf("%s: Stored = (%v, %v), want (%v, %v)", label, published, present, wantPublished, wantPresent)
		}
	}
	check("unpublished", s, false, false)
	v, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	check("published", s, true, true)
	corruptDoc(t, st, CollServe, indexKey(fixBuilding, v.ETag))
	check("rotten index, not yet read", s, true, true)
	if published, err := s.Verify(fixBuilding); !published || err == nil {
		t.Fatalf("Verify over a rotten index = (%v, %v), want (true, error)", published, err)
	}
	check("index quarantined", s, true, false)
	if _, err := s.Publish(fixBuilding, f.res); err != nil {
		t.Fatal(err)
	}
	check("repaired", s, true, true)
	corruptDoc(t, st, CollServe, planKey(fixBuilding))
	check("restart over a rotten plan record", newTestService(t, st), true, false)
}

// TestBuildingsListsQuarantinedRecords: Buildings enumerates from disk
// keys and keeps listing a building after its plan record is quarantined,
// via the surviving version-floor document.
func TestBuildingsListsQuarantinedRecords(t *testing.T) {
	f := fixture(t)
	st := store.New()
	s := newTestService(t, st)
	if got := s.Buildings(); len(got) != 0 {
		t.Fatalf("Buildings on empty store = %v", got)
	}
	if _, err := s.Publish(fixBuilding, f.res); err != nil {
		t.Fatal(err)
	}
	if got := s.Buildings(); len(got) != 1 || got[0] != fixBuilding {
		t.Fatalf("Buildings = %v, want [%s]", got, fixBuilding)
	}
	corruptDoc(t, st, CollServe, planKey(fixBuilding))
	cold := newTestService(t, st)
	if _, ok := cold.Plan(fixBuilding); ok {
		t.Fatal("corrupt plan served")
	}
	if got := cold.Buildings(); len(got) != 1 || got[0] != fixBuilding {
		t.Fatalf("Buildings after quarantine = %v, want [%s]", got, fixBuilding)
	}
}
