package pipeline

import (
	"bytes"
	"testing"

	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/obs"
)

func TestJournalRoundTrip(t *testing.T) {
	st := store.New()
	reg := obs.New()
	j, err := NewJournal(st, reg)
	if err != nil {
		t.Fatal(err)
	}
	if j.Completed("bldg", "pairs", "fp1") {
		t.Fatal("empty journal reports completion")
	}
	if reg.Counter("pipeline.resume.misses").Value() != 1 {
		t.Error("miss not counted")
	}
	if err := j.Complete("bldg", "pairs", "fp1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if !j.Completed("bldg", "pairs", "fp1") {
		t.Error("completion not recorded")
	}
	payload, ok := j.Payload("bldg", "pairs", "fp1")
	if !ok || !bytes.Equal(payload, []byte("payload")) {
		t.Errorf("payload = %q, %v", payload, ok)
	}
	// A changed corpus fingerprint makes the record stale.
	if j.Completed("bldg", "pairs", "fp2") {
		t.Error("stale record reported complete")
	}
	if reg.Counter("pipeline.resume.stale").Value() != 1 {
		t.Error("staleness not counted")
	}
	// Records survive a "restart": a new journal over the same store.
	j2, err := NewJournal(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Completed("bldg", "pairs", "fp1") {
		t.Error("record lost across journal recreation")
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Complete("a", "b", "c", nil); err != nil {
		t.Errorf("nil journal Complete: %v", err)
	}
	if j.Completed("a", "b", "c") {
		t.Error("nil journal reports completion")
	}
	if _, ok := j.Payload("a", "b", "c"); ok {
		t.Error("nil journal returned a payload")
	}
	if _, err := NewJournal(nil, nil); err == nil {
		t.Error("NewJournal accepted a nil store")
	}
}

// TestJournalStagesAndDrop covers the per-capture artifact enumeration
// the delta path garbage-collects with: Stages lists one job's records
// (composite names verbatim, other jobs excluded) and Drop removes
// exactly one.
func TestJournalStagesAndDrop(t *testing.T) {
	j, err := NewJournal(store.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Complete("Lab2", "track/fp-a", "sig", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := j.Complete("Lab2", "track/fp-b", "sig", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := j.Complete("Lab2", "plan", "sig", nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Complete("Lab1", "track/fp-c", "sig", nil); err != nil {
		t.Fatal(err)
	}

	got := j.Stages("Lab2")
	want := map[string]bool{"track/fp-a": true, "track/fp-b": true, "plan": true}
	if len(got) != len(want) {
		t.Fatalf("Stages(Lab2) = %v, want the %d Lab2 stages", got, len(want))
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected stage %q", s)
		}
	}

	if err := j.Drop("Lab2", "track/fp-a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Payload("Lab2", "track/fp-a", "sig"); ok {
		t.Error("dropped stage still readable")
	}
	if _, ok := j.Payload("Lab2", "track/fp-b", "sig"); !ok {
		t.Error("Drop removed a sibling stage")
	}
	if len(j.Stages("Lab2")) != 2 {
		t.Errorf("Stages(Lab2) = %v after drop, want 2 entries", j.Stages("Lab2"))
	}
	if len(j.Stages("Lab1")) != 1 {
		t.Errorf("Stages(Lab1) = %v, want 1 entry", j.Stages("Lab1"))
	}

	// Nil journal: both are safe no-ops.
	var nilJ *Journal
	if nilJ.Stages("Lab2") != nil {
		t.Error("nil journal listed stages")
	}
	if err := nilJ.Drop("Lab2", "plan"); err != nil {
		t.Error("nil journal Drop errored")
	}
}

// TestJournalQuarantinesCorruptCheckpoint: a bit-flipped record reads as
// a counted miss (→ the stage recomputes), the poison bytes move to the
// quarantine collection, and a fresh Complete repairs the key in place.
func TestJournalQuarantinesCorruptCheckpoint(t *testing.T) {
	st := store.New()
	reg := obs.New()
	j, err := NewJournal(st, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Complete("bldg", "pairs", "fp1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw, _ := st.Get(CheckpointColl, "bldg/pairs")
	raw[len(raw)/2] ^= 0x01
	if err := st.Put(CheckpointColl, "bldg/pairs", raw); err != nil {
		t.Fatal(err)
	}
	if j.Completed("bldg", "pairs", "fp1") {
		t.Fatal("corrupt checkpoint reported complete")
	}
	c := reg.Snapshot().Counters
	if c["pipeline.resume.corrupt"] != 1 || c["integrity.corrupt"] != 1 {
		t.Errorf("corruption counters = %v", c)
	}
	if _, ok := st.Get(integrity.QuarantineColl, CheckpointColl+"/bldg/pairs"); !ok {
		t.Error("corrupt checkpoint not quarantined")
	}
	if _, ok := st.Get(CheckpointColl, "bldg/pairs"); ok {
		t.Error("corrupt checkpoint still in working collection")
	}
	// Recompute-and-Complete is the repair.
	if err := j.Complete("bldg", "pairs", "fp1", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if !j.Completed("bldg", "pairs", "fp1") {
		t.Error("repaired checkpoint not readable")
	}
}

// TestJournalQuarantinesUnparsableCheckpoint: a valid envelope over
// JSON that no longer parses (a writer bug or sub-envelope corruption)
// is quarantined exactly like an envelope failure.
func TestJournalQuarantinesUnparsableCheckpoint(t *testing.T) {
	st := store.New()
	reg := obs.New()
	j, err := NewJournal(st, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.keep.Put(CheckpointColl, "bldg/pairs", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if j.Completed("bldg", "pairs", "fp1") {
		t.Fatal("unparsable checkpoint reported complete")
	}
	if _, ok := st.Get(integrity.QuarantineColl, CheckpointColl+"/bldg/pairs"); !ok {
		t.Error("unparsable checkpoint not quarantined")
	}
	if reg.Snapshot().Counters["pipeline.resume.corrupt"] != 1 {
		t.Error("pipeline.resume.corrupt not counted")
	}
}
