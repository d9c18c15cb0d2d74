package pipeline

import (
	"encoding/json"
	"fmt"

	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/obs"
)

// Job checkpointing: the reconstruction pipeline records stage
// completion in a Journal so a restarted daemon can resume work already
// done for the same input corpus. Each record is keyed by (job, stage)
// and carries the fingerprint of the inputs the stage ran over; a
// fingerprint mismatch means the corpus changed and the checkpoint is
// stale. A record carries a payload (the exported pair-comparison
// decisions) that the resuming process reloads instead of recomputing. The journal persists through any DocStore — in
// production the WAL-backed document store, so checkpoints share the
// store's durability guarantees.

// DocStore is the persistence surface the journal needs; *store.Store
// satisfies it.
type DocStore interface {
	Put(coll, key string, val []byte) error
	Get(coll, key string) ([]byte, bool)
	Keys(coll string) []string
	Delete(coll, key string) error
}

// CheckpointColl is the store collection holding journal records.
const CheckpointColl = "checkpoints"

// Checkpoint is one persisted stage-completion record.
type Checkpoint struct {
	Job         string `json:"job"`
	Stage       string `json:"stage"`
	Fingerprint string `json:"fingerprint"`
	Payload     []byte `json:"payload,omitempty"`
}

// Journal records and queries stage completion. A nil *Journal is a valid
// no-op sink: Complete discards, Completed and Payload report nothing,
// so pipeline code checkpoints unconditionally. Safe for concurrent use
// (the underlying store provides the locking).
type Journal struct {
	st  DocStore
	obs *obs.Registry
	// keep envelopes every record (integrity verify-on-read): a flipped
	// bit in a persisted checkpoint is quarantined and reported as a
	// miss, so the stage recomputes instead of resuming from poison.
	keep *integrity.Keeper
}

// NewJournal builds a journal over st; reg (may be nil) receives the
// pipeline.resume.* and integrity.* metrics.
func NewJournal(st DocStore, reg *obs.Registry) (*Journal, error) {
	if st == nil {
		return nil, fmt.Errorf("pipeline: journal needs a store")
	}
	return &Journal{st: st, obs: reg, keep: integrity.NewKeeper(st, reg)}, nil
}

func journalKey(job, stage string) string { return job + "/" + stage }

// Complete durably records that a stage finished over inputs identified
// by fingerprint, with an optional payload for the resuming process.
func (j *Journal) Complete(job, stage, fingerprint string, payload []byte) error {
	if j == nil {
		return nil
	}
	rec := Checkpoint{Job: job, Stage: stage, Fingerprint: fingerprint, Payload: payload}
	data, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("pipeline: encode checkpoint: %w", err)
	}
	if err := j.keep.Put(CheckpointColl, journalKey(job, stage), data); err != nil {
		return fmt.Errorf("pipeline: save checkpoint %s/%s: %w", job, stage, err)
	}
	j.obs.Counter("pipeline.resume.saved").Inc()
	return nil
}

// lookup fetches, integrity-verifies, and fingerprint-checks a record,
// counting the outcome. A corrupt record — bad envelope or a valid
// envelope over JSON that no longer parses — is quarantined and reported
// as a miss: the stage recomputes and the next Complete overwrites the
// key, which is the whole repair.
func (j *Journal) lookup(job, stage, fingerprint string) (Checkpoint, bool) {
	if j == nil {
		return Checkpoint{}, false
	}
	data, ok, err := j.keep.Get(CheckpointColl, journalKey(job, stage))
	if err != nil {
		j.obs.Counter("pipeline.resume.corrupt").Inc()
		j.obs.Counter("pipeline.resume.misses").Inc()
		return Checkpoint{}, false
	}
	if !ok {
		j.obs.Counter("pipeline.resume.misses").Inc()
		return Checkpoint{}, false
	}
	var rec Checkpoint
	if err := json.Unmarshal(data, &rec); err != nil {
		j.keep.Quarantine(CheckpointColl, journalKey(job, stage))
		j.obs.Counter("pipeline.resume.corrupt").Inc()
		j.obs.Counter("pipeline.resume.misses").Inc()
		return Checkpoint{}, false
	}
	if rec.Fingerprint != fingerprint {
		j.obs.Counter("pipeline.resume.stale").Inc()
		return Checkpoint{}, false
	}
	j.obs.Counter("pipeline.resume.hits").Inc()
	return rec, true
}

// Completed reports whether the stage already ran over exactly these
// inputs. A stale record (different fingerprint) reports false and counts
// pipeline.resume.stale.
func (j *Journal) Completed(job, stage, fingerprint string) bool {
	_, ok := j.lookup(job, stage, fingerprint)
	return ok
}

// Payload returns the payload a completed stage attached, if the record
// exists and matches the fingerprint.
func (j *Journal) Payload(job, stage, fingerprint string) ([]byte, bool) {
	rec, ok := j.lookup(job, stage, fingerprint)
	if !ok {
		return nil, false
	}
	return rec.Payload, true
}

// Stages lists the stage names with a record for one job, in store key
// order. Composite stage names (e.g. the per-capture "track/<fingerprint>"
// artifacts older daemons journaled) are returned verbatim.
func (j *Journal) Stages(job string) []string {
	if j == nil {
		return nil
	}
	prefix := job + "/"
	var out []string
	for _, k := range j.st.Keys(CheckpointColl) {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k[len(prefix):])
		}
	}
	return out
}

// Drop deletes one job's stage record, if present. Used to garbage-collect
// per-capture artifacts whose capture left the corpus.
func (j *Journal) Drop(job, stage string) error {
	if j == nil {
		return nil
	}
	return j.st.Delete(CheckpointColl, journalKey(job, stage))
}
