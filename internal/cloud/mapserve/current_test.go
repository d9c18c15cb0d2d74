package mapserve

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"reflect"
	"sort"
	"testing"

	"crowdmap"
	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/obs"
)

// withCorpus returns a shallow copy of res built from the named corpus.
func withCorpus(res *crowdmap.Result, corpus string) *crowdmap.Result {
	cp := *res
	cp.Corpus = corpus
	return &cp
}

// TestCurrentStates walks the currency check the scan asks every tick:
// another corpus is not current; rot it cannot see, but quarantine (by a
// verified read or the scrubber) removes the document and flips it, also
// after a restart.
func TestCurrentStates(t *testing.T) {
	f := fixture(t)
	st := store.New()
	s := newTestService(t, st)
	res := withCorpus(f.res, "corpus-1")
	check := func(label string, s *Service, corpus string, want bool) {
		t.Helper()
		if got := s.Current(fixBuilding, corpus); got != want {
			t.Fatalf("%s: Current(%q) = %v, want %v", label, corpus, got, want)
		}
	}
	check("unpublished", s, "corpus-1", false)
	v, err := s.Publish(fixBuilding, res)
	if err != nil {
		t.Fatal(err)
	}
	check("published", s, "corpus-1", true)
	check("another corpus", s, "corpus-2", false)
	corruptDoc(t, st, CollServe, indexKey(fixBuilding, v.ETag))
	check("rotten index, not yet read", s, "corpus-1", true)
	if published, err := s.Verify(fixBuilding); !published || err == nil {
		t.Fatalf("Verify over a rotten index = (%v, %v), want (true, error)", published, err)
	}
	check("index quarantined", s, "corpus-1", false)
	if _, err := s.Publish(fixBuilding, res); err != nil {
		t.Fatal(err)
	}
	check("repaired", s, "corpus-1", true)
	corruptDoc(t, st, CollServe, planKey(fixBuilding))
	check("restart over a rotten plan record", newTestService(t, st), "corpus-1", false)
}

// TestPublishNewCorpusRewritesOnlyRecord: the same content built from
// another corpus keeps its version and ETag and leaves every read-tier
// document but the plan record byte-identical — the index in particular,
// which is keyed by content and large. The record then names the new
// corpus, in memory and after a restart.
func TestPublishNewCorpusRewritesOnlyRecord(t *testing.T) {
	f := fixture(t)
	st := store.New()
	reg := obs.New()
	s := newTestService(t, st, WithObs(reg))
	v1, err := s.Publish(fixBuilding, withCorpus(f.res, "corpus-1"))
	if err != nil {
		t.Fatal(err)
	}
	docs := func() map[string][]byte {
		out := make(map[string][]byte)
		for _, k := range st.Keys(CollServe) {
			out[k], _ = st.Get(CollServe, k)
		}
		return out
	}
	before := docs()
	v2, err := s.Publish(fixBuilding, withCorpus(f.res, "corpus-2"))
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 {
		t.Fatalf("new corpus changed identity: %+v -> %+v", v1, v2)
	}
	after := docs()
	if !reflect.DeepEqual(keysOf(before), keysOf(after)) {
		t.Fatalf("read-tier documents %v -> %v", keysOf(before), keysOf(after))
	}
	for k, b := range before {
		if changed := !bytes.Equal(b, after[k]); changed != (k == planKey(fixBuilding)) {
			t.Errorf("%s rewritten = %v, want only the plan record rewritten", k, changed)
		}
	}
	c := reg.Snapshot().Counters
	if c["mapserve.publishes"] != 1 || c["mapserve.publish.unchanged"] != 1 {
		t.Errorf("publishes = %d, unchanged = %d, want 1 and 1", c["mapserve.publishes"], c["mapserve.publish.unchanged"])
	}
	for label, svc := range map[string]*Service{"warm": s, "restarted": newTestService(t, st)} {
		if !svc.Current(fixBuilding, "corpus-2") || svc.Current(fixBuilding, "corpus-1") {
			t.Errorf("%s: record does not name the new corpus alone", label)
		}
	}
	// The same content and corpus again is a no-op that writes nothing.
	if _, err := s.Publish(fixBuilding, withCorpus(f.res, "corpus-2")); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, docs()) {
		t.Error("an unchanged publish rewrote a read-tier document")
	}
}

func keysOf(m map[string][]byte) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// legacyPlanRecord is the plan record as stored before records named
// their corpus and carried an SVG rendition.
type legacyPlanRecord struct {
	Building string
	Version  uint64
	ETag     string
	JSON     []byte
	PNG      []byte
	IndexKey string
}

// TestLegacyPlanRecordNotCurrent: a record written by the older struct
// still decodes and serves, but names no corpus, so it is current for
// none; publishing the same content rewrites it in place (same version
// and ETag) with the corpus and the SVG.
func TestLegacyPlanRecordNotCurrent(t *testing.T) {
	f := fixture(t)
	st := store.New()
	res := withCorpus(f.res, "corpus-1")
	v, err := newTestService(t, st).Publish(fixBuilding, res)
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := integrity.NewKeeper(st, nil).Get(CollServe, planKey(fixBuilding))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodePlanRecord(raw)
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	zw := gzip.NewWriter(&legacy)
	if err := gob.NewEncoder(zw).Encode(&legacyPlanRecord{
		Building: rec.Building, Version: rec.Version, ETag: rec.ETag,
		JSON: rec.JSON, PNG: rec.PNG, IndexKey: rec.IndexKey,
	}); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(CollServe, planKey(fixBuilding), integrity.Wrap(legacy.Bytes())); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	s := newTestService(t, st, WithObs(reg))
	pv, ok := s.Plan(fixBuilding)
	if !ok || pv.PlanVersion != v || len(pv.SVG) != 0 {
		t.Fatalf("legacy record serves %+v (ok=%v, %d SVG bytes), want %+v and no SVG", pv.PlanVersion, ok, len(pv.SVG), v)
	}
	if s.Current(fixBuilding, "corpus-1") {
		t.Fatal("a record naming no corpus reads current")
	}
	v2, err := s.Publish(fixBuilding, res)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v {
		t.Fatalf("republish over a legacy record changed identity: %+v -> %+v", v, v2)
	}
	if reg.Snapshot().Counters["mapserve.publish.unchanged"] != 1 {
		t.Error("republish over a legacy record not counted unchanged")
	}
	if !s.Current(fixBuilding, "corpus-1") {
		t.Error("republished record not current")
	}
	want, err := res.Plan.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	if pv, _ := newTestService(t, st).Plan(fixBuilding); !bytes.Equal(pv.SVG, want) {
		t.Error("republished record carries no SVG rendition of the plan")
	}
}
