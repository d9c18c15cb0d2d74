package crowdmap

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"crowdmap/internal/aggregate"
	"crowdmap/internal/alphashape"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/crowd"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/geom"
	"crowdmap/internal/gridmap"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/layout"
	"crowdmap/internal/mathx"
	"crowdmap/internal/obs"
	"crowdmap/internal/quality"
	"crowdmap/internal/vision/pano"
	"crowdmap/internal/world"
)

// Result is the output of a full reconstruction run.
type Result struct {
	// Plan is the assembled floor plan.
	Plan *Plan
	// Tracks are the extracted per-capture tracks, indexed like the input
	// captures; nil at indices whose capture was excluded (see Excluded).
	Tracks []*Track
	// Aggregation is the trajectory merge outcome.
	Aggregation *aggregate.Result
	// RoomObservations are the per-panorama room reconstructions before
	// deduplication and placement.
	RoomObservations []floorplan.RoomObservation
	// RoomFailures records captures whose room reconstruction failed and
	// why (unplaced track, inadmissible panorama, layout failure).
	RoomFailures map[string]error
	// Metrics is the pipeline's final metrics snapshot: per-stage timings
	// (stage.*.seconds), key-frame keep/drop counts, hierarchical
	// comparison pass rates (compare.s1/s2), aggregation decisions and
	// placement counts. When Config.Metrics supplied a shared registry the
	// snapshot includes whatever else that registry accumulated.
	Metrics MetricsSnapshot
	// Excluded lists captures the run completed without: quality-gate
	// rejections and per-capture stage failures (including recovered
	// worker panics). A non-empty list means the plan is a degraded-mode
	// result built from the surviving subset.
	Excluded []Exclusion
	// Coverage summarizes how much of the input corpus the plan rests on.
	Coverage Coverage
}

// Exclusion records one capture a reconstruction run completed without.
type Exclusion struct {
	// CaptureID identifies the excluded capture.
	CaptureID string
	// Stage is where the capture fell out: StageQualityGate for gate
	// rejections (in hybrid mode, only after both modality verdicts
	// rejected it — Reasons then carries the union of both), StageKeyframes
	// for vision-route extraction errors and recovered panics, and
	// StageTrajectory for dead-reckoning errors on the trajectory route.
	Stage string
	// Reasons are machine-readable quality codes (gate rejections) or
	// error strings (stage failures).
	Reasons []string
}

// Coverage summarizes a run's input survival, so callers can distinguish
// a full-corpus plan from a degraded one at a glance.
type Coverage struct {
	// Input is the number of captures handed to Reconstruct.
	Input int
	// Used is the number that survived to drive the plan.
	Used int
	// Excluded is len(Result.Excluded).
	Excluded int
	// Degraded is true when any capture was excluded.
	Degraded bool
	// Vision is the number of used captures that ran the full video
	// pipeline (key-frames, anchors, rooms). In ModeVision this equals
	// Used.
	Vision int
	// TrajectoryOnly is the number of used captures that contributed
	// dead-reckoned trajectory density only: every used capture in
	// ModeTrajectory, and hybrid-mode captures whose video failed the
	// quality gate but whose IMU verdict admitted them.
	TrajectoryOnly int
}

// PlacedKeyFrame is one extracted key-frame together with its pose in the
// plan's global frame: the key-frame's dead-reckoned local position shifted
// by its track's aggregation offset, paired with the fused camera heading.
// It is the unit of the appearance-based localization index — a stored
// corpus of placed key-frames lets a single query frame be matched (via the
// same hierarchical comparison the pipeline uses) and answered with a pose
// on the reconstructed plan (see internal/cloud/mapserve).
type PlacedKeyFrame struct {
	// TrackID is the capture the key-frame came from.
	TrackID string
	// KF is the key-frame with all extracted features.
	KF *KeyFrame
	// Pos is the key-frame's camera position in the plan's global frame.
	Pos geom.Pt
	// Heading is the fused camera heading at capture time, radians.
	Heading float64
}

// PlacedKeyFrames exports every key-frame of every track the aggregation
// placed, with global-frame poses. Key-frames of unplaced tracks are
// omitted: without an aggregation offset they have no global pose. The
// result is deterministic — tracks in input (capture) order, key-frames in
// time order — so two identical reconstructions export identical indexes.
// Both the batch and the delta entry points populate the fields this
// reads, so it works on any completed Result.
func (r *Result) PlacedKeyFrames() []PlacedKeyFrame {
	if r == nil || r.Aggregation == nil {
		return nil
	}
	var out []PlacedKeyFrame
	// Aggregation offsets are keyed by index into the compacted surviving
	// track slice; r.Tracks is input-indexed with nils at exclusions, so
	// walk it re-deriving the compact index.
	live := 0
	for _, tr := range r.Tracks {
		if tr == nil {
			continue
		}
		off, placed := r.Aggregation.Offsets[live]
		live++
		if !placed {
			continue
		}
		for _, kf := range tr.KFs {
			out = append(out, PlacedKeyFrame{
				TrackID: tr.ID,
				KF:      kf,
				Pos:     kf.LocalPos.Add(off),
				Heading: kf.Heading,
			})
		}
	}
	return out
}

// CaptureError identifies which capture a per-capture pipeline failure
// came from, so a daemon can quarantine the poison capture (dead-letter
// it) and retry the job over the remaining corpus.
type CaptureError struct {
	CaptureID string
	Err       error
}

func (e *CaptureError) Error() string {
	return fmt.Sprintf("crowdmap: capture %s: %v", e.CaptureID, e.Err)
}

func (e *CaptureError) Unwrap() error { return e.Err }

// Stage names recorded in a checkpoint journal (Config.Checkpoints).
const (
	StageKeyframes = "keyframes"
	StagePairs     = "pairs"
	StageSkeleton  = "skeleton"
	StagePlan      = "plan"
)

// StageQualityGate names the pre-pipeline quality gate in
// Result.Excluded entries. It is not a checkpointed stage: the gate is
// cheap and deterministic, so it simply re-runs on every attempt.
const StageQualityGate = "quality"

// CorpusFingerprint identifies a capture corpus by content: the SHA-256
// over the sorted per-capture content fingerprints. Checkpoints are keyed
// by it, so adding, removing, or altering any capture invalidates them.
func CorpusFingerprint(captures []*Capture) string {
	fps := make([]string, len(captures))
	for i, c := range captures {
		fps[i] = c.ID + ":" + c.Fingerprint()
	}
	sort.Strings(fps)
	h := sha256.New()
	for _, fp := range fps {
		h.Write([]byte(fp))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Reconstruct runs the complete CrowdMap cloud pipeline over a capture
// corpus: key-frame extraction, sequence-based aggregation, hallway
// skeleton reconstruction, per-room panorama + layout estimation, and
// force-directed plan assembly.
func Reconstruct(captures []*Capture, cfg Config) (*Result, error) {
	return ReconstructContext(context.Background(), captures, cfg)
}

// ReconstructContext is Reconstruct under a caller context: cancellation
// (or a deadline, e.g. a retry policy's per-attempt timeout) stops the
// pipeline between and within stages. When Config.JobID and
// Config.Checkpoints are set, each finished stage is recorded in the
// journal keyed by the corpus fingerprint; the pair-comparison stage
// additionally persists its decisions (the exported PairCache), which a
// resumed run reloads so the expensive anchor searches are not repeated.
// Because decisions are identical with or without the cache, a resumed
// run produces a plan byte-identical to an uninterrupted one.
//
// The run is failure-isolated per capture: quality-gate rejections
// (Config.Quality) and per-capture extraction failures — including panics
// recovered inside pipeline workers — exclude that capture and the job
// completes in degraded mode over the surviving subset, with every
// exclusion recorded on Result.Excluded and the survival ratio on
// Result.Coverage. The degraded plan is byte-identical to the plan a
// fresh run over only the surviving captures would produce. The run
// fails outright only for corpus-level problems: invalid configuration,
// zero survivors, context cancellation, or a skeleton/placement failure.
func ReconstructContext(ctx context.Context, captures []*Capture, cfg Config) (*Result, error) {
	return reconstructPipeline(ctx, captures, cfg, nil)
}

// reconstructPipeline is the stage body shared by ReconstructContext
// (ds == nil: every stage computes from scratch) and ReconstructDelta
// (ds != nil: stages consult the delta state's memos first). Every memo is
// keyed by the complete set of inputs its computation reads — capture
// content fingerprint, parameter signatures, track index, placement
// offset — so a memo hit returns exactly what recomputation would, and
// the two paths produce byte-identical results by construction.
func reconstructPipeline(ctx context.Context, captures []*Capture, cfg Config, ds *deltaRun) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(captures) == 0 {
		return nil, fmt.Errorf("crowdmap: no captures")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Checkpointing is active only with a job identity to key records by.
	ckpt := cfg.Checkpoints
	if cfg.JobID == "" {
		ckpt = nil
	}
	fp := ""
	if ckpt != nil {
		fp = CorpusFingerprint(captures)
	}
	// Metrics: use the caller's registry when provided so stage timings
	// appear on a shared /metrics endpoint; fall back to a private one.
	// Instrumented subsystems receive it via their Params (keyframe,
	// aggregate) or via the context (pipeline.Map).
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.New()
	}
	cfg.Keyframe.Obs = reg
	cfg.Aggregate.KF.Obs = reg
	ctx = obs.NewContext(ctx, reg)
	if cfg.StageBudget > 0 {
		ctx = pipeline.WithSoftBudget(ctx, cfg.StageBudget)
	}
	reg.Counter("reconstruct.runs").Inc()
	reg.Counter("reconstruct.captures").Add(int64(len(captures)))
	ds.begin(reg)
	totalDone := obs.Stage(reg, "reconstruct.total")

	res := &Result{RoomFailures: make(map[string]error)}

	// Stage 0: quality gate and modality routing. Irrecoverable captures
	// are excluded here — before any expensive work — and sanitized copies
	// replace captures with recoverable defects. The gate is deterministic,
	// so exclusion order (input order), the surviving corpus, and the
	// per-capture route are all reproducible.
	reg.Counter("reconstruct.mode." + cfg.Mode.String()).Inc()
	live := captures
	scores := make([]float64, len(captures)) // 0 = unscored
	origIdx := make([]int, len(captures))    // live index -> input index
	for i := range origIdx {
		origIdx[i] = i
	}
	// route[i] marks live[i] as trajectory-routed: dead reckoning only, no
	// vision stack. All captures in ModeTrajectory; in ModeHybrid, the
	// captures the full gate rejected but the inertial verdict admitted.
	route := make([]bool, len(captures))
	if cfg.Mode == ModeTrajectory {
		for i := range route {
			route[i] = true
		}
	}
	if cfg.Quality != nil {
		gateDone := obs.Stage(reg, "quality.gate")
		qp := *cfg.Quality
		qp.Obs = reg
		live = make([]*Capture, 0, len(captures))
		scores = scores[:0]
		origIdx = origIdx[:0]
		route = route[:0]
		for i, c := range captures {
			var gated *Capture
			var rep quality.Report
			traj := false
			switch cfg.Mode {
			case ModeTrajectory:
				// Video is never consumed, so video defects must not reject
				// the capture: the inertial verdict alone decides admission.
				gated, rep = quality.GateIMU(c, qp)
				traj = true
			case ModeHybrid:
				gated, rep = quality.Gate(c, qp)
				if !rep.OK {
					// Per-modality rescue: a capture whose video failed the
					// gate still contributes trajectory density when its
					// IMU is sound.
					if g, irep := quality.GateIMU(c, qp); irep.OK {
						gated, rep, traj = g, irep, true
						reg.Counter("reconstruct.mode.rescued").Inc()
					} else {
						rep.Reasons = mergeReasons(rep.Reasons, irep.Reasons)
					}
				}
			default:
				gated, rep = quality.Gate(c, qp)
			}
			if !rep.OK {
				res.Excluded = append(res.Excluded, Exclusion{
					CaptureID: c.ID, Stage: StageQualityGate, Reasons: rep.Reasons,
				})
				continue
			}
			live = append(live, gated)
			scores = append(scores, rep.Score)
			origIdx = append(origIdx, i)
			route = append(route, traj)
		}
		gateDone()
		if len(live) == 0 {
			return nil, fmt.Errorf("crowdmap: quality gate excluded all %d captures", len(captures))
		}
	}

	// Stage 1: per-capture key-frame extraction (embarrassingly parallel).
	// MapAll rather than Map: a poisoned capture — extraction error or a
	// panic recovered in the worker — must cost the job that capture, not
	// the corpus, so every sibling runs to completion regardless.
	extractDone := obs.Stage(reg, "keyframe.extract")
	liveTracks := make([]*Track, len(live))
	release := func(i int) {
		if cfg.ReleaseFrames {
			// live[i] may be a sanitized copy; release the caller's frames
			// too (both alias the same frame slice when not copied).
			live[i].Frames = nil
			captures[origIdx[i]].Frames = nil
		}
	}
	errs, ctxErr := pipeline.MapAll(ctx, len(live), cfg.Workers, func(_ context.Context, i int) error {
		// Fingerprints are computed before ReleaseFrames drops the pixels
		// they cover. A delta run keys its track memo by the (sanitized)
		// capture fingerprint: a hit skips extraction entirely — the gate
		// and extraction are deterministic, so the memoized track is what
		// extraction would produce.
		var capFP string
		if ds != nil {
			// The delta config signature covers cfg.Mode and routing is
			// deterministic in (content, params, mode), so a memo hit
			// returns a track of the shape this run's route would build.
			tr, fp, hit := ds.lookupTrack(live[i], scores[i])
			if hit {
				liveTracks[i] = tr
				release(i)
				return nil
			}
			capFP = fp
		}
		var kfs []*KeyFrame
		var traj *Trajectory
		var err error
		if route[i] {
			traj, err = deadReckonTrack(live[i])
		} else {
			kfs, traj, err = extractTrack(live[i], cfg)
		}
		if err != nil {
			return &CaptureError{CaptureID: live[i].ID, Err: err}
		}
		if capFP == "" {
			capFP = live[i].Fingerprint()
		}
		liveTracks[i] = &aggregate.Track{
			ID:      live[i].ID,
			Traj:    traj,
			KFs:     kfs,
			Night:   live[i].Night,
			Hash:    capFP,
			Quality: scores[i],
		}
		ds.storeTrack(capFP, liveTracks[i])
		release(i)
		return nil
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	// Compact to the surviving subset. Downstream stages see exactly the
	// slice a fresh run over only the survivors would receive, which is
	// what makes the degraded-mode plan byte-identical to that run's.
	tracks := make([]*Track, 0, len(live))
	liveCaps := make([]*Capture, 0, len(live))
	trackRoute := make([]bool, 0, len(live)) // route, compacted like tracks
	res.Tracks = make([]*Track, len(captures))
	for i := range live {
		if errs[i] != nil {
			stage := StageKeyframes
			if route[i] {
				stage = StageTrajectory
			}
			res.Excluded = append(res.Excluded, Exclusion{
				CaptureID: live[i].ID, Stage: stage,
				Reasons: []string{errs[i].Error()},
			})
			continue
		}
		res.Tracks[origIdx[i]] = liveTracks[i]
		tracks = append(tracks, liveTracks[i])
		liveCaps = append(liveCaps, live[i])
		trackRoute = append(trackRoute, route[i])
	}
	if len(tracks) == 0 {
		return nil, fmt.Errorf("crowdmap: no captures survived extraction (%d excluded)", len(res.Excluded))
	}
	captures = liveCaps
	trajUsed := 0
	for _, r := range trackRoute {
		if r {
			trajUsed++
		}
	}
	res.Coverage = Coverage{
		Input:          len(res.Tracks),
		Used:           len(tracks),
		Excluded:       len(res.Excluded),
		Degraded:       len(res.Excluded) > 0,
		Vision:         len(tracks) - trajUsed,
		TrajectoryOnly: trajUsed,
	}
	reg.Counter("reconstruct.mode.routed.vision").Add(int64(len(tracks) - trajUsed))
	reg.Counter("reconstruct.mode.routed.trajectory").Add(int64(trajUsed))
	reg.Counter("reconstruct.excluded").Add(int64(len(res.Excluded)))
	extractDone()
	// Checkpoint writes are best-effort: losing one costs recomputation on
	// the next attempt, never correctness.
	_ = ckpt.Complete(cfg.JobID, StageKeyframes, fp, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 2: all-pairs aggregation, parallelized like the paper's Spark
	// stage, memoized and then replayed through the sequential graph
	// builder. A resumed run first reloads the previous attempt's pair
	// decisions into the cache, so only pairs the crash interrupted are
	// compared for real.
	if cfg.PairCache != nil {
		if payload, ok := ckpt.Payload(cfg.JobID, StagePairs, fp); ok && len(payload) > 0 {
			if err := cfg.PairCache.ImportJSON(payload); err != nil {
				// A pairs payload the cache rejects under a valid integrity
				// envelope is a write-time bug; drop the record so it is
				// never retried and recompute the comparisons.
				_ = ckpt.Drop(cfg.JobID, StagePairs)
				reg.Counter("pipeline.resume.corrupt").Inc()
			}
		}
	}
	aggDone := obs.Stage(reg, "aggregate")
	var agg *aggregate.Result
	var err error
	if cfg.Mode == ModeTrajectory {
		// Trajectory mode drives the same union-find aggregation with the
		// turn-anchor comparer. Decisions are cheap and never cached — the
		// pair cache stores vision decisions only.
		agg, err = parallelAggregate(ctx, tracks, cfg.Aggregate, cfg.Workers, aggregate.CompareTrajectoryPair)
	} else {
		agg, err = ParallelAggregate(ctx, tracks, cfg.Aggregate, cfg.Workers, cfg.PairCache)
	}
	if err != nil {
		return nil, err
	}
	aggDone()
	if ckpt != nil {
		var payload []byte
		if cfg.PairCache != nil {
			payload, _ = cfg.PairCache.ExportJSON()
		}
		_ = ckpt.Complete(cfg.JobID, StagePairs, fp, payload)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reg.Counter("aggregate.matches").Add(int64(len(agg.Matches)))
	reg.Counter("aggregate.rejected").Add(int64(len(agg.Rejected)))
	reg.Counter("aggregate.tracks.placed").Add(int64(len(agg.Offsets)))
	if cfg.Mode != ModeVision {
		// Fold trajectory-routed tracks the aggregation left outside the
		// largest component into the global frame (shape matching against
		// the placed set, then GPS fallback), so their dead-reckoned walks
		// seed the occupancy grid instead of being dropped.
		placeTrajectoryTracks(agg, tracks, trackRoute, captures, cfg.Aggregate, reg)
	}

	// Stage 3: hallway skeleton from placed trajectories, with per-track
	// drift calibrated against anchor evidence (the paper's "calibrate the
	// drift error residing in the trajectories").
	skelDone := obs.Stage(reg, "skeleton")
	global := agg.DriftCorrected(tracks, cfg.Aggregate.Epsilon)
	var mask *gridmap.Binary
	var shape *alphashape.Shape
	if ds != nil {
		// Incremental: patch the persistent occupancy grid (exact — see
		// gridmap.Tracked), then re-run the cheap threshold/close/α-shape
		// tail over it, which is exactly what BuildSkeleton does.
		mask, shape, err = ds.skeleton(global, cfg.Skeleton, reg)
	} else {
		mask, shape, err = floorplan.BuildSkeleton(global, cfg.Skeleton)
	}
	if err != nil {
		return nil, fmt.Errorf("crowdmap: skeleton: %w", err)
	}
	skelDone()
	_ = ckpt.Complete(cfg.JobID, StageSkeleton, fp, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 4: room reconstruction for placed SRS/Visit captures.
	res.Aggregation = agg
	var mu sync.Mutex
	roomIdx := make([]int, 0, len(captures))
	for i, c := range captures {
		if c.Kind == crowd.KindSRS || c.Kind == crowd.KindVisit {
			if cfg.Mode != ModeVision && len(tracks[i].KFs) == 0 {
				continue // trajectory-routed: no frames to stitch a panorama from
			}
			roomIdx = append(roomIdx, i)
		}
	}
	roomsDone := obs.Stage(reg, "rooms")
	// Workers write into fixed slots so the final observation order is the
	// roomIdx (capture) order regardless of goroutine scheduling —
	// dedupRooms and floorplan.PlaceRooms are order-sensitive, so appending
	// under the mutex made the plan vary run-to-run.
	obsSlots := make([]*floorplan.RoomObservation, len(roomIdx))
	err = pipeline.Map(ctx, len(roomIdx), cfg.Workers, func(_ context.Context, k int) error {
		i := roomIdx[k]
		// The room memo key covers every input reconstructRoom reads:
		// capture content (fingerprint), the layout RNG's track index, the
		// aggregation offset, and the camera intrinsics (which the content
		// fingerprint does not include); the config signature guarding the
		// whole DeltaState covers the parameter fields.
		if ds != nil {
			if ob, rerr, hit := ds.lookupRoom(captures[i], i, tracks[i], agg); hit {
				if rerr != nil {
					mu.Lock()
					res.RoomFailures[captures[i].ID] = rerr
					mu.Unlock()
					return nil
				}
				obsSlots[k] = &ob
				return nil
			}
		}
		ob, rerr := reconstructRoom(captures[i], i, tracks[i], agg, cfg)
		ds.storeRoom(captures[i], i, tracks[i], agg, ob, rerr)
		if rerr != nil {
			mu.Lock()
			res.RoomFailures[captures[i].ID] = rerr
			mu.Unlock()
			return nil // room failures degrade the plan, not the run
		}
		obsSlots[k] = &ob
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, ob := range obsSlots {
		if ob != nil {
			res.RoomObservations = append(res.RoomObservations, *ob)
		}
	}
	roomsDone()
	reg.Counter("rooms.observed").Add(int64(len(res.RoomObservations)))
	reg.Counter("rooms.failed").Add(int64(len(res.RoomFailures)))

	// Stage 5: deduplicate room observations and place them.
	placeDone := obs.Stage(reg, "place")
	placedObs := dedupRooms(res.RoomObservations, cfg.RoomMergeRadius)
	rooms, err := floorplan.PlaceRooms(placedObs, mask, cfg.ForceDir)
	if err != nil {
		return nil, fmt.Errorf("crowdmap: room placement: %w", err)
	}
	placeDone()
	reg.Counter("rooms.placed").Add(int64(len(rooms)))

	res.Plan = &floorplan.Plan{
		Building:     captures[0].Geo.Building,
		HallwayMask:  mask,
		HallwayShape: shape,
		Rooms:        rooms,
		Trajectories: global,
	}
	totalDone()
	_ = ckpt.Complete(cfg.JobID, StagePlan, fp, nil)
	ds.finish()
	res.Metrics = reg.Snapshot()
	return res, nil
}

// extractTrack runs the key-frame front-end for one capture.
func extractTrack(c *Capture, cfg Config) ([]*KeyFrame, *Trajectory, error) {
	return keyframe.Extract(c, cfg.Keyframe)
}

// ParallelAggregate memoizes all pair comparisons with bounded parallelism
// and then runs the aggregation graph logic over the memo. It is the
// library's equivalent of the paper's PySpark acceleration of trajectory
// aggregation. A non-nil cache short-circuits pairs whose decision is
// already known from a previous job (see aggregate.PairCache); pass nil to
// compare every pair from scratch.
func ParallelAggregate(ctx context.Context, tracks []*Track, p aggregate.Params, workers int, cache *aggregate.PairCache) (*aggregate.Result, error) {
	cmp := func(ai, bi int, a, b *aggregate.Track, pp aggregate.Params) (aggregate.Match, bool, error) {
		if len(a.KFs) == 0 || len(b.KFs) == 0 {
			// Key-frame-less (trajectory-routed) tracks carry nothing the
			// visual comparison can match. The decision is the same no-match
			// the anchor search would reach, but skipping it keeps these
			// pairs out of the cache — their decision is not worth an entry.
			return aggregate.Match{}, false, nil
		}
		return aggregate.ComparePairCached(ai, bi, a, b, pp, cache)
	}
	res, err := parallelAggregate(ctx, tracks, p, workers, cmp)
	if err == nil && cache != nil {
		p.KF.Obs.Gauge("compare.cache.entries").Set(float64(cache.Len()))
	}
	return res, err
}

// parallelAggregate memoizes cmp over all pairs with bounded parallelism
// and replays the memo through the sequential aggregation graph. Shared by
// the vision path (cached anchor comparison) and the trajectory path
// (turn-anchor comparison, uncached).
func parallelAggregate(ctx context.Context, tracks []*Track, p aggregate.Params, workers int, cmp aggregate.PairComparer) (*aggregate.Result, error) {
	type cell struct {
		m  aggregate.Match
		ok bool
	}
	memo := make(map[[2]int]cell)
	var mu sync.Mutex
	pairs := pipeline.Pairs(len(tracks))
	// MapAll: a failing pair comparison — an error or a panic recovered in
	// the worker — degrades to "no match" for that pair rather than
	// aborting the job. A pair failure cannot be attributed to either
	// capture alone, so neither is excluded; the pair simply contributes
	// no merge evidence, and the failure count is observable on
	// aggregate.pairs.failed. Failures are deterministic for given inputs,
	// so the degraded decision is too.
	errs, ctxErr := pipeline.MapAll(ctx, len(pairs), workers, func(_ context.Context, i int) error {
		pr := pairs[i]
		m, ok, err := cmp(pr.I, pr.J, tracks[pr.I], tracks[pr.J], p)
		if err != nil {
			return err
		}
		mu.Lock()
		memo[[2]int{pr.I, pr.J}] = cell{m: m, ok: ok}
		mu.Unlock()
		return nil
	})
	if ctxErr != nil {
		return nil, ctxErr
	}
	failed := 0
	for i, err := range errs {
		if err != nil {
			memo[[2]int{pairs[i].I, pairs[i].J}] = cell{}
			failed++
		}
	}
	if failed > 0 {
		p.KF.Obs.Counter("aggregate.pairs.failed").Add(int64(failed))
	}
	replay := func(ai, bi int, _, _ *aggregate.Track, _ aggregate.Params) (aggregate.Match, bool, error) {
		c, found := memo[[2]int{ai, bi}]
		if !found {
			return aggregate.Match{}, false, fmt.Errorf("crowdmap: missing memoized pair (%d,%d)", ai, bi)
		}
		return c.m, c.ok, nil
	}
	return aggregate.Aggregate(tracks, p, replay)
}

// reconstructRoom builds the panorama for one SRS/Visit capture and
// estimates the room layout, yielding an observation in the global frame.
// trackIdx indexes the capture's track in the aggregation result.
func reconstructRoom(c *Capture, trackIdx int, tr *Track, agg *aggregate.Result, cfg Config) (floorplan.RoomObservation, error) {
	offset, placed := agg.Offsets[trackIdx]
	if !placed {
		return floorplan.RoomObservation{}, fmt.Errorf("crowdmap: track %s not placed by aggregation", tr.ID)
	}
	srs := srsKeyFrames(tr.KFs, tr.Traj, cfg.Keyframe.EffectiveStayRadius())
	pn, err := stitchRoomPanorama(srs, c.Camera, cfg)
	if err != nil {
		return floorplan.RoomObservation{}, fmt.Errorf("crowdmap: panorama for %s: %w", c.ID, err)
	}
	l, err := estimateLayout(pn, cfg, int64(trackIdx))
	if err != nil {
		return floorplan.RoomObservation{}, fmt.Errorf("crowdmap: layout for %s: %w", c.ID, err)
	}
	// Camera position in the global frame: the SRS stand point (trajectory
	// start) plus this track's aggregation offset.
	camPos := tr.Traj.Points[0].Pos.Add(offset)
	return floorplan.RoomObservation{
		ID:         c.RoomID, // evaluation label only; placement is geometric
		CameraPos:  camPos,
		RoomLayout: l,
	}, nil
}

// dedupRooms merges observations whose estimated room centers lie within
// radius, keeping the best-scoring layout of each cluster. The decision is
// purely geometric (the paper merges key-frames per occupancy cell); room
// IDs ride along as evaluation labels only.
//
// Clusters are the connected components of the "centers within radius"
// graph. Pairwise-against-the-seed membership (the previous behavior)
// made A–B–C chains split or merge depending on input order: with seed A,
// C fell outside A's radius and became its own room even though both are
// within radius of B. Components are order-independent, so the plan is
// identical however the observations arrive.
func dedupRooms(obs []floorplan.RoomObservation, radius float64) []floorplan.RoomObservation {
	if radius <= 0 || len(obs) < 2 {
		return obs
	}
	n := len(obs)
	centers := make([]geom.Pt, n)
	for i, o := range obs {
		centers[i] = o.CameraPos.Add(o.RoomLayout.CenterOffset())
	}
	// Union-find with the smallest member index as the root, so component
	// identity (and hence output order) is deterministic.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if centers[j].Dist(centers[i]) <= radius {
				ri, rj := find(i), find(j)
				if ri != rj {
					if ri > rj {
						ri, rj = rj, ri
					}
					parent[rj] = ri
				}
			}
		}
	}
	// One representative per component: the highest-scoring member (ties
	// go to the earliest), emitted in order of each component's first
	// member.
	best := make(map[int]int, n)
	var roots []int
	for i := 0; i < n; i++ {
		r := find(i)
		b, seen := best[r]
		if !seen {
			best[r] = i
			roots = append(roots, r)
		} else if obs[i].RoomLayout.Score > obs[b].RoomLayout.Score {
			best[r] = i
		}
	}
	out := make([]floorplan.RoomObservation, 0, len(roots))
	for _, r := range roots {
		out = append(out, obs[best[r]])
	}
	return out
}

// srsKeyFrames selects the key-frames captured during the stationary spin
// phase: those whose dead-reckoned position stays within stayRadius of the
// trajectory start.
func srsKeyFrames(kfs []*KeyFrame, traj *Trajectory, stayRadius float64) []*KeyFrame {
	if len(traj.Points) == 0 {
		return nil
	}
	start := traj.Points[0].Pos
	var out []*KeyFrame
	for _, kf := range kfs {
		if kf.LocalPos.Dist(start) <= stayRadius {
			out = append(out, kf)
		}
	}
	return out
}

// stitchRoomPanorama selects an admissible covering subset of SRS
// key-frames and stitches them.
func stitchRoomPanorama(kfs []*KeyFrame, cam world.Camera, cfg Config) (*pano.Panorama, error) {
	if len(kfs) == 0 {
		return nil, fmt.Errorf("crowdmap: no stationary key-frames for panorama")
	}
	p := cfg.Pano
	p.FOV = cam.FOV
	p.Pitch = cam.Pitch
	headings := make([]float64, len(kfs))
	for i, kf := range kfs {
		headings[i] = kf.Heading
	}
	sel, err := pano.SelectCover(headings, p)
	if err != nil {
		return nil, err
	}
	frames := make([]pano.Frame, len(sel))
	for i, idx := range sel {
		frames[i] = pano.Frame{Image: kfs[idx].Image, Heading: kfs[idx].Heading}
	}
	selHeadings := make([]float64, len(frames))
	for i, f := range frames {
		selHeadings[i] = f.Heading
	}
	if err := pano.Admissible(selHeadings, p); err != nil {
		return nil, err
	}
	// Gyro headings are good to a degree or two; image registration
	// polishes the relative alignment before blending (the AutoStitch
	// role).
	refined, err := pano.RefineHeadings(frames, p, 3, 0.5)
	if err != nil {
		return nil, err
	}
	for i := range frames {
		frames[i].Heading = refined[i]
	}
	return pano.Stitch(frames, p)
}

// estimateLayout wraps layout estimation with the pipeline seed.
func estimateLayout(pn *pano.Panorama, cfg Config, seed int64) (layout.Layout, error) {
	lp := cfg.Layout
	return layout.Estimate(pn, lp, mathx.NewRNG(cfg.Seed*1_000_003+seed))
}
