package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdmap/internal/cloud/faultfs"
	"crowdmap/internal/obs"
)

// The WAL turns the in-memory document store into a crash-safe one:
// every mutation — document puts and deletes, and each accepted upload
// chunk — is appended to a segment file before it is acknowledged, so a
// kill -9 at any instant loses nothing that was acked. On startup the WAL
// replays snapshot + segments to rebuild both the document collections
// and the set of partially uploaded captures, letting a phone resume a
// chunked upload by re-sending only the chunks the server never logged.
//
// On-disk layout under the WAL directory:
//
//	snapshot.json        full store + pending-upload state up to seq N (atomic rename)
//	wal-<seq:016x>.seg   append-only record segments, named by first seq
//	wal.index            advisory index {snapshot_seq, segments}; rebuilt by
//	                     directory scan when missing or torn
//
// Segment format: an 8-byte magic header, then length-prefixed CRC32-
// guarded JSON records. Replay stops at the first corrupt or short record
// of the final segment and truncates the tail (a torn append is exactly
// an un-acked write); corruption in any earlier segment is reported as an
// error, because a fully written, fsynced segment has no business decaying.

// walMagic begins every segment file.
var walMagic = []byte("CMWAL001")

const (
	// frameHeaderSize is the per-record framing overhead: uint32 payload
	// length + uint32 CRC32 (IEEE) of the payload.
	frameHeaderSize = 8
	// maxRecordSize caps a single record payload; anything larger on
	// replay is treated as corruption, not an allocation request.
	maxRecordSize = 64 << 20
	// DefaultSegmentSize rotates segments once they exceed this size.
	DefaultSegmentSize = 32 << 20
)

// WAL record operations.
const (
	opPut          = "put"
	opDelete       = "del"
	opChunk        = "chunk"
	opUploadDone   = "udone"
	opUploadEvict  = "uevict"
	opUploadReject = "ureject"
)

// walRecord is the JSON payload of one log record.
type walRecord struct {
	Seq   uint64 `json:"seq"`
	Op    string `json:"op"`
	Coll  string `json:"coll,omitempty"`
	Key   string `json:"key,omitempty"` // document key or upload id
	Index int    `json:"index,omitempty"`
	Total int    `json:"total,omitempty"`
	Data  []byte `json:"data,omitempty"`
}

// RecoveredUpload is a partially assembled chunked upload reconstructed
// from the log: the chunks the server durably acked before the crash.
type RecoveredUpload struct {
	Total  int
	Chunks map[int][]byte
}

// SyncPolicy controls when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before an append returns. Concurrent appenders
	// share fsyncs (group commit), so the cost amortizes under load. This
	// is the only policy under which an acked write survives kill -9
	// unconditionally.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background cadence (plus at rotation and
	// close): bounded data-loss window, much higher append throughput.
	SyncInterval
	// SyncNever leaves flushing to the OS (still syncs at rotation/close).
	SyncNever
)

// ParseSyncPolicy maps the -wal-sync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown sync policy %q (want always, interval or never)", s)
}

// WALOption configures OpenWAL.
type WALOption func(*WAL)

// WALSync selects the fsync policy (default SyncAlways).
func WALSync(p SyncPolicy) WALOption { return func(w *WAL) { w.policy = p } }

// WALSyncEvery sets the background fsync cadence for SyncInterval
// (default 100ms).
func WALSyncEvery(d time.Duration) WALOption {
	return func(w *WAL) {
		if d > 0 {
			w.syncEvery = d
		}
	}
}

// WALSegmentSize overrides the rotation threshold (default
// DefaultSegmentSize). Small values are useful in tests.
func WALSegmentSize(n int64) WALOption {
	return func(w *WAL) {
		if n > 0 {
			w.segMax = n
		}
	}
}

// WALFS substitutes the filesystem (fault injection in tests).
func WALFS(fs faultfs.FS) WALOption { return func(w *WAL) { w.fs = fs } }

// WALObs attaches a metrics registry for the store.wal.* family.
func WALObs(r *obs.Registry) WALOption { return func(w *WAL) { w.obs = r } }

// WAL is a write-ahead log bound to a Store. Create with OpenWAL. All
// methods are safe for concurrent use.
type WAL struct {
	dir       string
	fs        faultfs.FS
	policy    SyncPolicy
	syncEvery time.Duration
	segMax    int64
	obs       *obs.Registry

	st *Store

	mu         sync.Mutex
	active     faultfs.File
	activePath string
	activeSize int64
	seq        uint64 // last assigned sequence number
	snapSeq    uint64 // seq covered by snapshot.json
	segments   []string
	closed     bool

	// syncMu serializes fsyncs (group commit); synced is the highest seq
	// known durable. syncMu is never held together with mu by the same
	// goroutine acquiring in both orders: syncTo takes syncMu then briefly
	// mu; paths holding mu touch synced only through the atomic.
	syncMu sync.Mutex
	synced atomic.Uint64

	recovered map[string]*RecoveredUpload

	stopSync chan struct{}
	syncDone chan struct{}
}

// walIndex is the advisory wal.index content.
type walIndex struct {
	SnapshotSeq uint64   `json:"snapshot_seq"`
	Segments    []string `json:"segments"`
}

// walSnapshot is the snapshot.json content: the full store plus pending
// uploads as of Seq.
type walSnapshot struct {
	Seq     uint64                       `json:"seq"`
	Colls   map[string]map[string][]byte `json:"colls"`
	Uploads map[string]*RecoveredUpload  `json:"uploads,omitempty"`
}

// OpenWAL opens (creating if needed) a write-ahead log in dir, replays it
// into a fresh Store, and returns the WAL with the store attached: every
// later Store.Put/Delete is logged before it is applied. Recovery rules:
// records already covered by the snapshot are skipped; a torn record at
// the tail of the final segment is truncated away (it was never acked);
// corruption anywhere else is an error.
func OpenWAL(dir string, opts ...WALOption) (*WAL, error) {
	w := &WAL{
		dir:       dir,
		fs:        faultfs.OS{},
		policy:    SyncAlways,
		syncEvery: 100 * time.Millisecond,
		segMax:    DefaultSegmentSize,
		st:        New(),
		recovered: make(map[string]*RecoveredUpload),
	}
	for _, o := range opts {
		o(w)
	}
	if err := w.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	if err := w.recover(); err != nil {
		return nil, err
	}
	if err := w.openSegment(); err != nil {
		return nil, err
	}
	w.writeIndex()
	w.st.log = w
	if w.policy == SyncInterval {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// Store returns the document store backed by this WAL.
func (w *WAL) Store() *Store { return w.st }

// SetObs attaches (or replaces) the metrics registry.
func (w *WAL) SetObs(r *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.obs = r
}

func (w *WAL) reg() *obs.Registry {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.obs
}

// RecoveredUploads returns the chunked uploads that were in flight when
// the previous process died: upload id → acked chunks. The maps are the
// WAL's own recovery state; callers must not mutate them after handing
// them to a server.
func (w *WAL) RecoveredUploads() map[string]*RecoveredUpload {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]*RecoveredUpload, len(w.recovered))
	for id, up := range w.recovered {
		out[id] = up
	}
	return out
}

// --- recovery ---------------------------------------------------------

func (w *WAL) path(name string) string { return w.dir + "/" + name }

func segmentName(firstSeq uint64) string { return fmt.Sprintf("wal-%016x.seg", firstSeq) }

// recover loads the snapshot and replays all segments.
func (w *WAL) recover() error {
	segs, snapOK, err := w.listState()
	if err != nil {
		return err
	}
	var snapSeq uint64
	if snapOK {
		data, err := w.fs.ReadFile(w.path("snapshot.json"))
		if err != nil {
			return fmt.Errorf("store: read snapshot: %w", err)
		}
		var snap walSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("store: decode snapshot: %w", err)
		}
		snapSeq = snap.Seq
		w.seq = snap.Seq
		w.snapSeq = snap.Seq
		storeMax(&w.synced, snap.Seq)
		w.st.mu.Lock()
		w.st.sums = nil
		w.st.colls = make(map[string]map[string][]byte, len(snap.Colls))
		for c, docs := range snap.Colls {
			w.st.colls[c] = make(map[string][]byte, len(docs))
			for k, v := range docs {
				w.st.colls[c][k] = v
			}
		}
		w.st.mu.Unlock()
		for id, up := range snap.Uploads {
			if up != nil && up.Chunks != nil {
				w.recovered[id] = up
			}
		}
	}
	replayed := 0
	for i, seg := range segs {
		n, err := w.replaySegment(seg, snapSeq, i == len(segs)-1)
		if err != nil {
			return err
		}
		replayed += n
	}
	w.segments = segs
	reg := w.obs
	reg.Counter("store.wal.replayed.records").Add(int64(replayed))
	reg.Counter("store.wal.replayed.uploads").Add(int64(len(w.recovered)))
	return nil
}

// listState determines the snapshot presence and the live segment list,
// preferring the advisory index and falling back to a directory scan when
// the index is missing or torn.
func (w *WAL) listState() (segs []string, snapOK bool, err error) {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return nil, false, fmt.Errorf("store: list wal dir: %w", err)
	}
	onDisk := make(map[string]bool, len(names))
	for _, n := range names {
		onDisk[n] = true
	}
	snapOK = onDisk["snapshot.json"]

	if onDisk["wal.index"] {
		if data, rerr := w.fs.ReadFile(w.path("wal.index")); rerr == nil {
			var idx walIndex
			if json.Unmarshal(data, &idx) == nil {
				// The index is advisory: trust it only if every segment it
				// names still exists. Stale extra segments on disk (a crash
				// between snapshot and cleanup) are covered by the seq check
				// during replay, so listing from the index is safe.
				ok := true
				for _, s := range idx.Segments {
					if !onDisk[s] {
						ok = false
						break
					}
				}
				if ok {
					sorted := append([]string(nil), idx.Segments...)
					sort.Strings(sorted)
					return sorted, snapOK, nil
				}
			}
		}
		w.obs.Counter("store.wal.index_rebuilt").Inc()
	}
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs)
	return segs, snapOK, nil
}

// replaySegment applies one segment's records. A short or corrupt record
// is tolerated only in the final segment, where the tail is truncated to
// the last good record.
func (w *WAL) replaySegment(name string, snapSeq uint64, last bool) (int, error) {
	data, err := w.fs.ReadFile(w.path(name))
	if err != nil {
		return 0, fmt.Errorf("store: read segment %s: %w", name, err)
	}
	truncate := func(off int64, why string) (int, error) {
		if !last {
			return 0, fmt.Errorf("store: segment %s corrupt at %d (%s) but is not the final segment", name, off, why)
		}
		dropped := int64(len(data)) - off
		if dropped > 0 {
			if err := w.fs.Truncate(w.path(name), off); err != nil {
				return 0, fmt.Errorf("store: truncate torn tail of %s: %w", name, err)
			}
			w.obs.Counter("store.wal.truncated.bytes").Add(dropped)
			w.obs.Counter("store.wal.truncations").Inc()
		}
		return 0, nil
	}
	if len(data) < len(walMagic) {
		// A header-less final segment is an interrupted rotation or
		// startup; empty it and let openSegment lay a fresh one down.
		return truncate(0, "short header")
	}
	if string(data[:len(walMagic)]) != string(walMagic) {
		return 0, fmt.Errorf("store: segment %s has bad magic", name)
	}
	off := int64(len(walMagic))
	count := 0
	for off < int64(len(data)) {
		if int64(len(data))-off < frameHeaderSize {
			return truncate(off, "short frame header")
		}
		length := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxRecordSize {
			return truncate(off, "oversized record")
		}
		end := off + frameHeaderSize + int64(length)
		if end > int64(len(data)) {
			return truncate(off, "short payload")
		}
		payload := data[off+frameHeaderSize : end]
		if crc32.ChecksumIEEE(payload) != sum {
			return truncate(off, "crc mismatch")
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return truncate(off, "bad json")
		}
		if rec.Seq > snapSeq && rec.Seq > w.seq {
			w.apply(&rec)
			w.seq = rec.Seq
			count++
		}
		off = end
	}
	return count, nil
}

// apply replays one record into the store / recovered-upload state.
func (w *WAL) apply(rec *walRecord) {
	switch rec.Op {
	case opPut:
		w.st.mu.Lock()
		w.st.applyPut(rec.Coll, rec.Key, rec.Data)
		w.st.mu.Unlock()
	case opDelete:
		w.st.mu.Lock()
		w.st.applyDelete(rec.Coll, rec.Key)
		w.st.mu.Unlock()
	case opChunk:
		up, ok := w.recovered[rec.Key]
		if !ok || up.Total != rec.Total {
			up = &RecoveredUpload{Total: rec.Total, Chunks: make(map[int][]byte)}
			w.recovered[rec.Key] = up
		}
		up.Chunks[rec.Index] = rec.Data
	case opUploadDone, opUploadEvict, opUploadReject:
		delete(w.recovered, rec.Key)
	}
}

// --- appending --------------------------------------------------------

// openSegment starts a fresh active segment after recovery or rotation.
// Caller must not hold w.mu (Open path) — rotation calls openSegmentLocked.
func (w *WAL) openSegment() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.openSegmentLocked()
}

func (w *WAL) openSegmentLocked() error {
	name := segmentName(w.seq + 1)
	f, err := w.fs.Create(w.path(name))
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if _, err := f.Write(walMagic); err != nil {
		f.Close()
		return fmt.Errorf("store: write segment header: %w", err)
	}
	w.active = f
	w.activePath = name
	w.activeSize = int64(len(walMagic))
	// An empty segment left by a previous startup gets recreated under its
	// own name; don't list it twice.
	if n := len(w.segments); n == 0 || w.segments[n-1] != name {
		w.segments = append(w.segments, name)
	}
	w.obs.Gauge("store.wal.segments").Set(float64(len(w.segments)))
	return nil
}

// append frames, writes and (policy permitting) syncs one record, and
// returns only after the record is as durable as the policy promises.
func (w *WAL) append(rec walRecord) error {
	payload0, err := json.Marshal(&rec) // size probe; real marshal after seq assignment
	if err != nil {
		return fmt.Errorf("store: encode wal record: %w", err)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("store: wal closed")
	}
	// Rotate before the write if this record would overflow the segment.
	if w.activeSize > int64(len(walMagic)) && w.activeSize+int64(len(payload0))+frameHeaderSize > w.segMax {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			return err
		}
	}
	w.seq++
	rec.Seq = w.seq
	seq := w.seq
	payload, err := json.Marshal(&rec)
	if err != nil {
		w.seq--
		w.mu.Unlock()
		return fmt.Errorf("store: encode wal record: %w", err)
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	frame := append(hdr[:], payload...)
	n, werr := w.active.Write(frame)
	w.activeSize += int64(n)
	reg := w.obs
	w.mu.Unlock()
	if werr != nil {
		return fmt.Errorf("store: wal append: %w", werr)
	}
	reg.Counter("store.wal.appends").Inc()
	reg.Counter("store.wal.append.bytes").Add(int64(n))
	if w.policy == SyncAlways {
		return w.syncTo(seq)
	}
	return nil
}

// storeMax raises an atomic to v if v is larger.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// syncTo makes every record up to seq durable, sharing fsyncs between
// concurrent appenders (group commit): a caller whose record was covered
// by another caller's fsync returns without touching the disk.
func (w *WAL) syncTo(seq uint64) error {
	if w.synced.Load() >= seq {
		w.reg().Counter("store.wal.syncs.coalesced").Inc()
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= seq {
		w.reg().Counter("store.wal.syncs.coalesced").Inc()
		return nil
	}
	w.mu.Lock()
	f := w.active
	// Records appended after this point may or may not be covered by the
	// fsync below; claim durability only up to the current tail. Records in
	// segments rotated away were fsynced at rotation, so syncing the active
	// file is always sufficient.
	cur := w.seq
	closed := w.closed
	reg := w.obs
	w.mu.Unlock()
	if closed {
		return fmt.Errorf("store: wal closed")
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	reg.Counter("store.wal.syncs").Inc()
	reg.Histogram("store.wal.sync.seconds").Observe(time.Since(start).Seconds())
	storeMax(&w.synced, cur)
	return nil
}

// rotateLocked syncs and closes the active segment and opens a new one.
func (w *WAL) rotateLocked() error {
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: sync before rotate: %w", err)
	}
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	storeMax(&w.synced, w.seq)
	w.obs.Counter("store.wal.rotations").Inc()
	if err := w.openSegmentLocked(); err != nil {
		return err
	}
	w.writeIndexLocked()
	return nil
}

// syncLoop is the SyncInterval background flusher.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(w.syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.mu.Lock()
			seq := w.seq
			closed := w.closed
			w.mu.Unlock()
			if closed {
				return
			}
			_ = w.syncTo(seq)
		case <-w.stopSync:
			return
		}
	}
}

// writeIndex persists the advisory index (atomic tmp+rename); failures
// are swallowed — the index only saves a directory scan on the next open.
func (w *WAL) writeIndex() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writeIndexLocked()
}

func (w *WAL) writeIndexLocked() {
	idx := walIndex{SnapshotSeq: w.snapSeq, Segments: append([]string(nil), w.segments...)}
	data, err := json.Marshal(idx)
	if err != nil {
		return
	}
	f, err := w.fs.Create(w.path("wal.index.tmp"))
	if err != nil {
		return
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return
	}
	if f.Sync() != nil || f.Close() != nil {
		return
	}
	_ = w.fs.Rename(w.path("wal.index.tmp"), w.path("wal.index"))
}

// --- mutationLog (Store hook) ----------------------------------------

func (w *WAL) logPut(coll, key string, val []byte) error {
	return w.append(walRecord{Op: opPut, Coll: coll, Key: key, Data: append([]byte(nil), val...)})
}

func (w *WAL) logDelete(coll, key string) error {
	return w.append(walRecord{Op: opDelete, Coll: coll, Key: key})
}

// --- chunk logging (server hook) -------------------------------------

// LogChunk durably records one accepted upload chunk; the server calls it
// before acking the chunk so a restart can offer chunk-level resume.
func (w *WAL) LogChunk(id string, index, total int, data []byte) error {
	return w.append(walRecord{Op: opChunk, Key: id, Index: index, Total: total,
		Data: append([]byte(nil), data...)})
}

// LogUploadDone records that an upload fully assembled (its chunk records
// are dead weight from here on and die at the next compaction).
func (w *WAL) LogUploadDone(id string) error {
	return w.append(walRecord{Op: opUploadDone, Key: id})
}

// LogUploadEvicted records that a pending upload was dropped (TTL
// eviction or invalid archive), so replay does not resurrect it.
func (w *WAL) LogUploadEvicted(id string) error {
	return w.append(walRecord{Op: opUploadEvict, Key: id})
}

// LogUploadRejected records that a fully assembled upload was refused at
// admission (quality gate, decompression caps). The reason codes travel in
// the record for offline audit; replay treats it like done/evicted — the
// chunk records are dead and the upload must not resurrect.
func (w *WAL) LogUploadRejected(id, reason string) error {
	return w.append(walRecord{Op: opUploadReject, Key: id, Data: []byte(reason)})
}

// --- maintenance ------------------------------------------------------

// Sync forces everything appended so far to stable storage (used by the
// SyncInterval/SyncNever policies at quiesce points).
func (w *WAL) Sync() error {
	w.mu.Lock()
	seq := w.seq
	w.mu.Unlock()
	return w.syncTo(seq)
}

// Compact folds the log into a fresh snapshot: it re-derives the pending
// uploads from the segments, writes snapshot.json atomically (store state
// + pending uploads as of the current seq), deletes every segment, and
// starts a new one. Append traffic is blocked for the duration. Crash
// safety: the snapshot rename is atomic, and stale segments that survive
// a crash mid-cleanup replay as no-ops thanks to the seq fence.
func (w *WAL) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("store: wal closed")
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("store: sync before compact: %w", err)
	}
	// Re-derive pending uploads from recovery state + live segments.
	uploads := make(map[string]*RecoveredUpload, len(w.recovered))
	for id, up := range w.recovered {
		cp := &RecoveredUpload{Total: up.Total, Chunks: make(map[int][]byte, len(up.Chunks))}
		for i, c := range up.Chunks {
			cp.Chunks[i] = c
		}
		uploads[id] = cp
	}
	for _, seg := range w.segments {
		data, err := w.fs.ReadFile(w.path(seg))
		if err != nil {
			return fmt.Errorf("store: compact read %s: %w", seg, err)
		}
		off := int64(len(walMagic))
		for off < int64(len(data)) {
			if int64(len(data))-off < frameHeaderSize {
				break
			}
			length := binary.LittleEndian.Uint32(data[off:])
			end := off + frameHeaderSize + int64(length)
			if length > maxRecordSize || end > int64(len(data)) {
				break
			}
			var rec walRecord
			if json.Unmarshal(data[off+frameHeaderSize:end], &rec) == nil {
				switch rec.Op {
				case opChunk:
					up, ok := uploads[rec.Key]
					if !ok || up.Total != rec.Total {
						up = &RecoveredUpload{Total: rec.Total, Chunks: make(map[int][]byte)}
						uploads[rec.Key] = up
					}
					up.Chunks[rec.Index] = rec.Data
				case opUploadDone, opUploadEvict, opUploadReject:
					delete(uploads, rec.Key)
				}
			}
			off = end
		}
	}
	w.st.mu.RLock()
	snap := walSnapshot{Seq: w.seq, Colls: w.st.colls, Uploads: uploads}
	data, err := json.Marshal(&snap)
	w.st.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	f, err := w.fs.Create(w.path("snapshot.json.tmp"))
	if err != nil {
		return fmt.Errorf("store: create snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := w.fs.Rename(w.path("snapshot.json.tmp"), w.path("snapshot.json")); err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	// The snapshot now covers everything; retire the old segments.
	if err := w.active.Close(); err != nil {
		return fmt.Errorf("store: close segment: %w", err)
	}
	old := w.segments
	w.segments = nil
	if err := w.openSegmentLocked(); err != nil {
		return err
	}
	for _, seg := range old {
		_ = w.fs.Remove(w.path(seg))
	}
	w.recovered = uploads
	w.snapSeq = snap.Seq
	storeMax(&w.synced, w.seq)
	w.writeIndexLocked()
	w.obs.Counter("store.wal.compactions").Inc()
	w.obs.Gauge("store.wal.segments").Set(float64(len(w.segments)))
	return nil
}

// Close syncs and closes the log. The attached Store becomes read-only in
// effect: further mutations fail with a closed-WAL error.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	if w.stopSync != nil {
		close(w.stopSync)
	}
	w.mu.Unlock()
	if w.syncDone != nil {
		<-w.syncDone
	}
	err := w.Sync()
	w.mu.Lock()
	w.closed = true
	cerr := w.active.Close()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if cerr != nil {
		return fmt.Errorf("store: close wal: %w", cerr)
	}
	return nil
}
