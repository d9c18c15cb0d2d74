package crowdmap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"crowdmap/internal/aggregate"
	"crowdmap/internal/alphashape"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/gridmap"
	"crowdmap/internal/obs"
	"crowdmap/internal/quality"
	"crowdmap/internal/trajectory"
)

// Incremental (delta) reconstruction: ReconstructDelta runs the same
// pipeline as Reconstruct, but carries a DeltaState that memoizes the
// expensive per-capture work between runs. A new upload then costs only
// its own key-frame extraction, its pair comparisons against the existing
// corpus (via the pair cache), an occupancy-grid patch, and its own room
// reconstruction — upload-to-map latency drops from O(corpus) to
// O(delta).
//
// Correctness model: every memo is keyed by the complete input set of the
// computation it skips —
//
//   - capture memo: the caller's corpus entry fingerprint. An entry holds
//     the gate verdict, the capture's frameless metadata and its track,
//     so a hit neither loads nor gates the capture; validity of all
//     entries is guarded by the config signature, which covers the gate
//     and extraction parameters (a config change resets the state
//     wholesale).
//   - pair memo: aggregate.PairCache, keyed by fingerprint pairs and the
//     aggregation-parameter signature (decisions pinned identical with or
//     without the cache since PR 2).
//   - occupancy grid: per-trajectory touched-cell lists keyed by
//     (trajectory ID, content hash); counts are integer-valued float
//     increments, so patching is bit-exact (see gridmap.Tracked).
//   - room memo: (capture fingerprint, track index, placement offset,
//     camera intrinsics) — everything reconstructRoom reads beyond the
//     config covered by the state signature.
//
// Everything else (the aggregation graph replay, drift correction, Otsu/
// closing/α-shape, dedup, force-directed placement) is cheap relative to
// the vision stages and simply re-runs every cycle. A memo hit therefore
// returns exactly what recomputation would, and a delta-applied plan is
// DeepEqual to a full rebuild over the same corpus — pinned by
// TestDeltaMatchesFullRebuild for randomized add/remove/modify/quarantine
// sequences.
//
// As a correctness backstop, Config.DeltaRebuildEvery forces a periodic
// full rebuild: every N-th run drops all memos (and the state-owned pair
// cache) and recomputes from scratch, repopulating them.

// DeltaState carries the memoized stage artifacts between ReconstructDelta
// runs for one corpus (typically one building). It is safe for concurrent
// use, but runs over the same state are serialized internally — use one
// DeltaState per building, as the daemon's per-building scheduler does.
//
// Memoized tracks are shared with the Results that produced them; callers
// must treat Result.Tracks as read-only (already the pipeline contract).
type DeltaState struct {
	// runMu serializes whole runs over this state.
	runMu sync.Mutex
	// memoMu guards the maps below against concurrent stage workers.
	memoMu sync.Mutex

	sig    string // config signature the memos were computed under
	cycles int    // delta runs since the last full rebuild

	// pairs is the state-owned pair cache, used when Config.PairCache is
	// nil; a caller-supplied cache takes precedence and is never flushed
	// by the rebuild backstop.
	pairs *aggregate.PairCache
	// captures memoizes stages 0 and 1: corpus entry fingerprint → gate
	// verdict, frameless metadata and track.
	captures map[string]*captureMemo
	// rooms memoizes room reconstruction outcomes (including failures).
	rooms map[string]roomMemo
	// grid is the incrementally patched occupancy grid.
	grid *gridmap.Tracked
}

type roomMemo struct {
	ob     floorplan.RoomObservation
	ok     bool
	errMsg string
}

// NewDeltaState returns an empty delta state. The first ReconstructDelta
// run over it is a full build that populates the memos.
func NewDeltaState() *DeltaState {
	return &DeltaState{
		captures: make(map[string]*captureMemo),
		rooms:    make(map[string]roomMemo),
	}
}

// reset drops every memo, returning the state to "first run" emptiness
// under the given config signature. Caller holds runMu.
func (s *DeltaState) reset(sig string) {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	s.sig = sig
	s.cycles = 0
	s.pairs = nil
	s.captures = make(map[string]*captureMemo)
	s.rooms = make(map[string]roomMemo)
	s.grid = nil
}

// Cycles reports how many delta runs have completed since the last full
// rebuild (diagnostics and tests).
func (s *DeltaState) Cycles() int {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	return s.cycles
}

// Clone returns an independent deep copy of the state: subsequent runs
// over the clone never affect the original. Used by benchmarks and tests
// that need to replay a delta from the same warm starting point.
func (s *DeltaState) Clone() *DeltaState {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	out := &DeltaState{
		sig:      s.sig,
		cycles:   s.cycles,
		captures: make(map[string]*captureMemo, len(s.captures)),
		rooms:    make(map[string]roomMemo, len(s.rooms)),
	}
	for k, v := range s.captures {
		out.captures[k] = v // entries are immutable once stored
	}
	for k, v := range s.rooms {
		out.rooms[k] = v
	}
	if s.grid != nil {
		out.grid = s.grid.Clone()
	}
	if s.pairs != nil {
		out.pairs = aggregate.NewPairCache(0)
		if data, err := s.pairs.ExportJSON(); err == nil {
			_ = out.pairs.ImportJSON(data)
		}
	}
	return out
}

// ReconstructDelta is ReconstructContext with cross-run memoization: runs
// over an evolving corpus reuse the state's per-capture tracks, pair
// decisions, occupancy-grid rasterization, and room reconstructions, so a
// run after a small corpus change costs O(changed captures), not
// O(corpus). The corpus comes as sources: a capture the memo already
// holds is never loaded, and a new or changed one is loaded inside its
// extraction worker, so a run holds at most cfg.Workers decoded captures
// at once. The result is byte-identical to ReconstructContext over the
// loaded captures and the same config.
//
// A nil state degrades to a plain run that loads every source. A config
// change (detected via an explicit versioned signature over every
// decision-relevant parameter) resets the state automatically, as does
// the Config.DeltaRebuildEvery backstop. The memos live in memory only: a
// fresh DeltaState (a restarted process) makes its first run a full
// build.
//
// Progress is observable on the reconstruct.delta.* metrics: runs,
// config_flushes, full_rebuilds, tracks.reused (memo hits) / .extracted
// (admitted misses),
// rooms.reused / .recomputed, grid.rebuilds / .rasterized / .reused.
//
// A delta Result is a complete Result: Tracks and Aggregation are fully
// populated (memo hits substitute for recomputation, never for fields),
// so downstream consumers — Result.PlacedKeyFrames and the read tier's
// mapserve.Publish — work identically on delta and batch results, and a
// no-op delta cycle publishes with an unchanged content ETag.
func ReconstructDelta(ctx context.Context, sources []CaptureSource, cfg Config, state *DeltaState) (*Result, error) {
	if state == nil {
		return reconstructPipeline(ctx, sources, cfg, nil, true)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	state.runMu.Lock()
	defer state.runMu.Unlock()

	sig := deltaConfigSignature(cfg)
	resetReason := ""
	switch {
	case state.sig != sig:
		resetReason = "config"
	case cfg.DeltaRebuildEvery > 0 && state.cycles >= cfg.DeltaRebuildEvery:
		resetReason = "interval"
	}
	if resetReason != "" {
		state.reset(sig)
	}
	if cfg.PairCache == nil {
		if state.pairs == nil {
			state.pairs = aggregate.NewPairCache(0)
		}
		cfg.PairCache = state.pairs
	}
	ds := &deltaRun{
		state:        state,
		resetEvent:   resetReason,
		usedCaptures: make(map[string]bool),
		usedRooms:    make(map[string]bool),
	}
	res, err := reconstructPipeline(ctx, sources, cfg, ds, true)
	if err == nil {
		state.cycles++
	}
	return res, err
}

// deltaRun is the per-run view of a DeltaState: it tracks which memo
// entries this run touched (for pruning) and the run's reset event (for
// metrics).
type deltaRun struct {
	state      *DeltaState
	resetEvent string
	reg        *obs.Registry

	mu           sync.Mutex
	usedCaptures map[string]bool
	usedRooms    map[string]bool
}

// begin wires the run to the resolved metrics registry; nil-safe so the
// batch path can call it unconditionally.
func (d *deltaRun) begin(reg *obs.Registry) {
	if d == nil {
		return
	}
	d.reg = reg
	reg.Counter("reconstruct.delta.runs").Inc()
	switch d.resetEvent {
	case "config":
		reg.Counter("reconstruct.delta.config_flushes").Inc()
	case "interval":
		reg.Counter("reconstruct.delta.full_rebuilds").Inc()
	}
}

// lookup returns the memo entry of a corpus entry fingerprint. Nil-safe
// for the batch path, which always misses.
func (d *deltaRun) lookup(fp string) (*captureMemo, bool) {
	if d == nil {
		return nil, false
	}
	d.state.memoMu.Lock()
	m := d.state.captures[fp]
	d.state.memoMu.Unlock()
	if m == nil {
		return nil, false
	}
	d.markUsed(fp)
	if m.track != nil {
		d.reg.Counter("reconstruct.delta.tracks.reused").Inc()
	}
	return m, true
}

// extracting counts a memo miss the gate admitted, on its way to
// extraction. Nil-safe.
func (d *deltaRun) extracting() {
	if d != nil {
		d.reg.Counter("reconstruct.delta.tracks.extracted").Inc()
	}
}

// store memoizes a loaded capture's verdict, metadata and track.
// Nil-safe.
func (d *deltaRun) store(fp string, m *captureMemo) {
	if d == nil {
		return
	}
	d.state.memoMu.Lock()
	d.state.captures[fp] = m
	d.state.memoMu.Unlock()
	d.markUsed(fp)
}

func (d *deltaRun) markUsed(fp string) {
	d.mu.Lock()
	d.usedCaptures[fp] = true
	d.mu.Unlock()
}

// skeleton is the incremental stage-3 body: patch the persistent grid to
// the current trajectory set, then run the deterministic tail shared with
// BuildSkeleton.
func (d *deltaRun) skeleton(global []*trajectory.Trajectory, p floorplan.SkeletonParams, reg *obs.Registry) (*gridmap.Binary, *alphashape.Shape, error) {
	bounds, err := floorplan.SkeletonBounds(global, p)
	if err != nil {
		return nil, nil, err
	}
	st := d.state
	if !st.grid.CompatibleWith(bounds, p.GridRes) {
		// The corpus outgrew (or first populated) the grid: cell indices
		// change, so cached rasterizations are meaningless. Start fresh;
		// Sync below rasterizes everything once and caches it.
		st.grid, err = gridmap.NewTracked(bounds, p.GridRes)
		if err != nil {
			return nil, nil, err
		}
		reg.Counter("reconstruct.delta.grid.rebuilds").Inc()
	}
	rasterized := st.grid.Sync(global)
	reg.Counter("reconstruct.delta.grid.rasterized").Add(int64(rasterized))
	reg.Counter("reconstruct.delta.grid.reused").Add(int64(len(global) - rasterized))
	return floorplan.SkeletonFromGrid(st.grid.Grid, p)
}

// lookupRoom returns the memoized room reconstruction outcome, if any.
func (d *deltaRun) lookupRoom(c *Capture, trackIdx int, tr *Track, agg *aggregate.Result) (floorplan.RoomObservation, error, bool) {
	key := roomMemoKey(c, trackIdx, tr, agg)
	d.state.memoMu.Lock()
	m, hit := d.state.rooms[key]
	d.state.memoMu.Unlock()
	if !hit {
		return floorplan.RoomObservation{}, nil, false
	}
	d.mu.Lock()
	d.usedRooms[key] = true
	d.mu.Unlock()
	d.reg.Counter("reconstruct.delta.rooms.reused").Inc()
	if !m.ok {
		// Failures memoize as their message: RoomFailures is reported by
		// string, and recreating the error keeps delta and full reports
		// identical.
		return floorplan.RoomObservation{}, errors.New(m.errMsg), true
	}
	return m.ob, nil, true
}

// storeRoom memoizes a room reconstruction outcome. Nil-safe for the
// batch path.
func (d *deltaRun) storeRoom(c *Capture, trackIdx int, tr *Track, agg *aggregate.Result, ob floorplan.RoomObservation, rerr error) {
	if d == nil {
		return
	}
	key := roomMemoKey(c, trackIdx, tr, agg)
	m := roomMemo{ob: ob, ok: rerr == nil}
	if rerr != nil {
		m.errMsg = rerr.Error()
	}
	d.state.memoMu.Lock()
	d.state.rooms[key] = m
	d.state.memoMu.Unlock()
	d.mu.Lock()
	d.usedRooms[key] = true
	d.mu.Unlock()
	d.reg.Counter("reconstruct.delta.rooms.recomputed").Inc()
}

// roomMemoKey covers every input reconstructRoom reads that is not under
// the state-wide config signature: capture content (tr.Hash), the layout
// seed's track index, the aggregation placement, and the camera
// intrinsics (not part of the content fingerprint). Offsets use exact
// float bits: any numeric placement change misses.
func roomMemoKey(c *Capture, trackIdx int, tr *Track, agg *aggregate.Result) string {
	off, placed := agg.Offsets[trackIdx]
	return fmt.Sprintf("%s|%d|%t|%x,%x|cam=%x,%x,%d,%d",
		tr.Hash, trackIdx, placed,
		math.Float64bits(off.X), math.Float64bits(off.Y),
		math.Float64bits(c.Camera.FOV), math.Float64bits(c.Camera.Pitch),
		c.Camera.W, c.Camera.H)
}

// finish prunes memo entries this run did not touch, bounding state
// growth to the live corpus. Nil-safe.
func (d *deltaRun) finish() {
	if d == nil {
		return
	}
	st := d.state
	d.mu.Lock()
	usedCaptures, usedRooms := d.usedCaptures, d.usedRooms
	d.mu.Unlock()
	st.memoMu.Lock()
	for fp := range st.captures {
		if !usedCaptures[fp] {
			delete(st.captures, fp)
		}
	}
	for k := range st.rooms {
		if !usedRooms[k] {
			delete(st.rooms, k)
		}
	}
	st.memoMu.Unlock()
}

// deltaConfigSignature is an explicit versioned encoding of every config
// field that influences reconstruction output. Like the pair cache's
// Params.Signature, it must be a pure function of the values — no %+v
// over structs that might grow pointer fields. Workers and Metrics are
// excluded (bit-identical output at any worker count is the pinned
// determinism contract); PairCache/Checkpoints/JobID are plumbing.
func deltaConfigSignature(cfg Config) string {
	return fmt.Sprintf(
		"delta-v2;mode=%d;%s;kf=%s;skel=%g,%g,%d,%g;layout=%g,%d,%g,%g,%d,%d;lsd=%g,%g,%g,%g;"+
			"pano=%g,%g,%d,%d,%g,%g;fd=%g,%g,%g,%g,%d,%g;merge=%g;seed=%d;release=%t;%s",
		int(cfg.Mode), cfg.Aggregate.Signature(), cfg.Keyframe.Signature(),
		cfg.Skeleton.GridRes, cfg.Skeleton.Alpha, cfg.Skeleton.CloseRadius, cfg.Skeleton.Margin,
		cfg.Layout.CameraHeight, cfg.Layout.Hypotheses, cfg.Layout.MinWall, cfg.Layout.MaxWall,
		cfg.Layout.ColumnStride, cfg.Layout.Seed,
		cfg.Layout.LSD.GradThreshold, cfg.Layout.LSD.AngleTol, cfg.Layout.LSD.MinLength, cfg.Layout.LSD.MinDensity,
		cfg.Pano.FOV, cfg.Pano.Pitch, cfg.Pano.OutW, cfg.Pano.OutH, cfg.Pano.MinOverlap, cfg.Pano.CoverSlack,
		cfg.ForceDir.SpringK, cfg.ForceDir.RepelK, cfg.ForceDir.HallwayK, cfg.ForceDir.Damping,
		cfg.ForceDir.MaxIter, cfg.ForceDir.Tolerance,
		cfg.RoomMergeRadius, cfg.Seed, cfg.ReleaseFrames,
		qualitySignature(cfg.Quality))
}

// qualitySignature is the explicit encoding of the gate parameters (Obs
// excluded); "off" when the gate is disabled.
func qualitySignature(q *quality.Params) string {
	if q == nil {
		return "off"
	}
	return fmt.Sprintf(
		"q-v1;pol=%d;dur=%g,%g;rate=%g,%g;fps=%g;step=%g,%g;slack=%g;bad=%g;gyro=%g;acc=%g;srs=%g,%g;steprate=%g;walk=%g",
		q.Policy, q.MinDuration, q.MaxDuration, q.MinSampleRate, q.MaxSampleRate, q.MaxFPS,
		q.MinStepLength, q.MaxStepLength, q.DurationSlack, q.MaxBadSampleFraction,
		q.MaxGyroRate, q.MaxAccel, q.MaxSRSDrift, q.MinSRSRotation, q.MaxStepRate, q.MaxWalkSpeed)
}
