// Package store is CrowdMap's document store — the stand-in for the
// MongoDB instance of the paper's cloud backend. It is an in-memory,
// goroutine-safe collection/key/value store (raw capture blobs in, floor
// plans out) with two persistence modes: JSON snapshots (Save/Load, for
// tooling and tests) and a write-ahead log (OpenWAL) that makes every
// mutation and every accepted upload chunk durable before it is acked,
// with crash-recovery replay, chunk-level upload resume, fsync batching,
// segment rotation, compaction and corrupted-tail truncation.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// mutationLog receives every store mutation before it is applied; the WAL
// implements it. A log error aborts the mutation, so a document is never
// visible in memory without being durable first.
type mutationLog interface {
	logPut(coll, key string, val []byte) error
	logDelete(coll, key string) error
}

// Store is a collection-oriented document store. The zero value is not
// usable; call New.
type Store struct {
	mu    sync.RWMutex
	colls map[string]map[string][]byte
	// sums caches document digests for Sum; every write of a document
	// drops its entry.
	sums map[[2]string]string
	log  mutationLog // nil when the store is memory-only
}

// New returns an empty store.
func New() *Store {
	return &Store{colls: make(map[string]map[string][]byte)}
}

// Put stores a document, replacing any previous value. The value is
// copied. On a WAL-backed store the write is logged (and, under the
// always-sync policy, fsynced) before it becomes visible.
func (s *Store) Put(coll, key string, val []byte) error {
	if coll == "" || key == "" {
		return fmt.Errorf("store: collection and key must be non-empty")
	}
	if s.log != nil {
		if err := s.log.logPut(coll, key, val); err != nil {
			return fmt.Errorf("store: wal put %s/%s: %w", coll, key, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyPut(coll, key, val)
	return nil
}

// applyPut installs a document. Caller holds the write lock. Installed
// values are never written in place, only replaced, which is what lets
// Sum hash one outside the lock.
func (s *Store) applyPut(coll, key string, val []byte) {
	c, ok := s.colls[coll]
	if !ok {
		c = make(map[string][]byte)
		s.colls[coll] = c
	}
	c[key] = append([]byte(nil), val...)
	delete(s.sums, [2]string{coll, key})
}

// applyDelete removes a document. Caller holds the write lock.
func (s *Store) applyDelete(coll, key string) {
	delete(s.colls[coll], key)
	delete(s.sums, [2]string{coll, key})
}

// Get retrieves a document copy; ok reports whether it exists.
func (s *Store) Get(coll, key string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.colls[coll][key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Sum returns the hex SHA-256 of a document without copying it; ok
// reports whether the document exists. The digest is computed at most
// once per write of the document, so a caller that polls the store for
// changes hashes each version once.
func (s *Store) Sum(coll, key string) (sum string, ok bool) {
	id := [2]string{coll, key}
	s.mu.RLock()
	sum, cached := s.sums[id]
	v, ok := s.colls[coll][key]
	s.mu.RUnlock()
	if cached || !ok {
		return sum, ok
	}
	h := sha256.Sum256(v)
	sum = hex.EncodeToString(h[:])
	s.mu.Lock()
	// Cache only if no write replaced the document while it was hashed.
	if cur, ok := s.colls[coll][key]; ok && len(cur) == len(v) && (len(v) == 0 || &cur[0] == &v[0]) {
		if s.sums == nil {
			s.sums = make(map[[2]string]string)
		}
		s.sums[id] = sum
	}
	s.mu.Unlock()
	return sum, true
}

// Has reports whether a document exists, without copying it.
func (s *Store) Has(coll, key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.colls[coll][key]
	return ok
}

// Delete removes a document; deleting a missing document is a no-op. On a
// WAL-backed store the deletion is logged before it is applied.
func (s *Store) Delete(coll, key string) error {
	if s.log != nil {
		if err := s.log.logDelete(coll, key); err != nil {
			return fmt.Errorf("store: wal delete %s/%s: %w", coll, key, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyDelete(coll, key)
	return nil
}

// Keys lists the document keys of a collection in sorted order.
func (s *Store) Keys(coll string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.colls[coll]))
	for k := range s.colls[coll] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of documents in a collection.
func (s *Store) Len(coll string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.colls[coll])
}

// Collections lists collection names in sorted order.
func (s *Store) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.colls))
	for c := range s.colls {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// snapshot is the on-disk representation.
type snapshot map[string]map[string][]byte

// Save writes a JSON snapshot of the whole store.
func (s *Store) Save(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return json.NewEncoder(w).Encode(snapshot(s.colls))
}

// Load replaces the store contents from a JSON snapshot.
func (s *Store) Load(r io.Reader) error {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("store: decode snapshot: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sums = nil
	s.colls = make(map[string]map[string][]byte, len(snap))
	for c, docs := range snap {
		s.colls[c] = make(map[string][]byte, len(docs))
		for k, v := range docs {
			s.colls[c][k] = v
		}
	}
	return nil
}

// SaveFile snapshots the store to a file path.
func (s *Store) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: create snapshot: %w", err)
	}
	defer f.Close()
	if err := s.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile restores the store from a snapshot file.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: open snapshot: %w", err)
	}
	defer f.Close()
	return s.Load(f)
}
