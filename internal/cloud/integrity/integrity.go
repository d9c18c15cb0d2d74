// Package integrity is the artifact-integrity layer for every document
// persisted above the WAL: checkpoint payloads, pair-cache exports,
// mapserve index documents and plan records, and rendered plan SVGs. The WAL's CRC framing protects log records in
// flight to disk; once a document is replayed into the store and
// compacted into snapshot.json, nothing re-checks its bytes. This
// package closes that gap with a versioned checksummed envelope (magic +
// format version + sha256 over the payload) wrapped around each
// artifact at write time and verified on every read.
//
// Corruption is never fatal and never served: Unwrap returns a typed
// *CorruptError, and the Keeper — the store-bound verify-on-read
// surface consumers use — moves the corrupt bytes to the quarantine
// collection, deletes the original so the consumer's recompute path
// takes over (re-extract, rebuild, republish), and counts the event on
// the integrity.* metrics. The background scrubber in crowdmapd walks
// collections through the same Keeper, so lazy reads and the scrubber
// share one detection/quarantine/repair mechanism.
package integrity

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"crowdmap/internal/obs"
)

// Envelope layout: magic (5 bytes) | version (1 byte) | sha256 (32
// bytes) | payload. The digest covers only the payload; the header is
// validated structurally (magic match, known version, minimum length).
var magic = []byte("CMIE1")

// Version is the current envelope format version.
const Version byte = 1

// headerLen is the fixed envelope overhead in bytes.
const headerLen = len("CMIE1") + 1 + sha256.Size

// QuarantineColl is the store collection corrupt documents are moved to,
// keyed "<original-collection>/<original-key>", so an operator can
// inspect the exact bytes that failed verification (see
// docs/OPERATIONS.md "Corruption handling").
const QuarantineColl = "quarantine"

// CorruptError is the typed verification failure: the artifact's bytes
// do not carry a valid envelope, or the payload hash does not match.
// Coll/Key are filled by the Keeper when the location is known.
type CorruptError struct {
	Coll, Key string
	Reason    string
}

func (e *CorruptError) Error() string {
	if e.Coll == "" && e.Key == "" {
		return "integrity: corrupt artifact: " + e.Reason
	}
	return fmt.Sprintf("integrity: corrupt artifact %s/%s: %s", e.Coll, e.Key, e.Reason)
}

// Wrap envelopes a payload for persistence: magic, format version, and
// the payload's sha256, followed by the payload itself.
func Wrap(payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload))
	out = append(out, magic...)
	out = append(out, Version)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// Wrapped reports whether data begins with a plausible envelope header
// (magic + known version). It does not verify the digest.
func Wrapped(data []byte) bool {
	return len(data) >= headerLen && bytes.HasPrefix(data, magic) && data[len(magic)] == Version
}

// Unwrap verifies an envelope and returns the payload. Any failure —
// truncation, missing or mangled magic, unknown version, digest
// mismatch — returns a *CorruptError; an artifact written before the
// envelope existed fails too (strict by design: everything wrapped is
// recomputable, so "corrupt" and "legacy" share the recompute path).
func Unwrap(data []byte) ([]byte, error) {
	if len(data) < headerLen {
		return nil, &CorruptError{Reason: fmt.Sprintf("truncated: %d bytes, envelope needs %d", len(data), headerLen)}
	}
	if !bytes.HasPrefix(data, magic) {
		return nil, &CorruptError{Reason: "bad magic (unwrapped or mangled artifact)"}
	}
	if v := data[len(magic)]; v != Version {
		return nil, &CorruptError{Reason: fmt.Sprintf("unknown envelope version %d", v)}
	}
	want := data[len(magic)+1 : headerLen]
	payload := data[headerLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], want) {
		return nil, &CorruptError{Reason: "payload hash mismatch"}
	}
	return payload, nil
}

// DocStore is the persistence surface the Keeper needs; *store.Store
// satisfies it (and pipeline.DocStore is the same contract).
type DocStore interface {
	Put(coll, key string, val []byte) error
	Get(coll, key string) ([]byte, bool)
	Keys(coll string) []string
	Delete(coll, key string) error
}

// Keeper is the verify-on-read surface over a document store: Put wraps,
// Get verifies and — on corruption — quarantines the raw bytes, deletes
// the original, and returns the typed error so the caller's
// repair-by-recompute path runs. Safe for concurrent use (the store
// provides the locking); a Keeper holds no per-document state.
type Keeper struct {
	st  DocStore
	reg *obs.Registry // nil-safe: obs instruments discard on nil
}

// NewKeeper builds a keeper over st; reg (may be nil) receives the
// integrity.* metrics.
func NewKeeper(st DocStore, reg *obs.Registry) *Keeper {
	return &Keeper{st: st, reg: reg}
}

// Put envelopes and stores a payload.
func (k *Keeper) Put(coll, key string, payload []byte) error {
	return k.st.Put(coll, key, Wrap(payload))
}

// Get fetches and verifies a document. A missing document returns
// (nil, false, nil). A corrupt one is quarantined (moved to
// QuarantineColl under "<coll>/<key>" and deleted from its collection),
// counted on integrity.corrupt/quarantined, and reported as
// (nil, false, *CorruptError) — the caller recomputes.
func (k *Keeper) Get(coll, key string) ([]byte, bool, error) {
	data, ok := k.st.Get(coll, key)
	if !ok {
		return nil, false, nil
	}
	payload, err := Unwrap(data)
	if err != nil {
		ce := err.(*CorruptError)
		ce.Coll, ce.Key = coll, key
		k.reg.Counter("integrity.corrupt").Inc()
		k.quarantine(coll, key, data)
		return nil, false, ce
	}
	k.reg.Counter("integrity.verified").Inc()
	return payload, true, nil
}

// Quarantine moves a document's current bytes to the quarantine
// collection and deletes the original. Consumers call it when a valid
// envelope holds a semantically corrupt payload (e.g. gob that no
// longer decodes), so those bytes leave the working set exactly like an
// envelope failure would.
func (k *Keeper) Quarantine(coll, key string) {
	data, ok := k.st.Get(coll, key)
	if !ok {
		return
	}
	k.reg.Counter("integrity.corrupt").Inc()
	k.quarantine(coll, key, data)
}

// quarantine is the shared move-and-count: best-effort, because the
// quarantine write itself can fail (a full WAL disk); in that case the
// original is left in place and counted unrepairable rather than
// silently dropped.
func (k *Keeper) quarantine(coll, key string, raw []byte) {
	if err := k.st.Put(QuarantineColl, coll+"/"+key, raw); err != nil {
		k.reg.Counter("integrity.unrepairable").Inc()
		return
	}
	if err := k.st.Delete(coll, key); err != nil {
		k.reg.Counter("integrity.unrepairable").Inc()
		return
	}
	k.reg.Counter("integrity.quarantined").Inc()
}
