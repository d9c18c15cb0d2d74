// Package crowdmap is an open reimplementation of CrowdMap (Chen, Li, Ren,
// Qiao — ICDCS 2015): accurate reconstruction of indoor floor plans from
// crowdsourced sensor-rich videos. The library covers the full system —
// the mobile front-end's SRS/SWS capture tasks (simulated), key-frame
// selection and hierarchical comparison, sequence-based trajectory
// aggregation, occupancy-grid + α-shape hallway skeletons, panorama-based
// room layout reconstruction, and force-directed floor plan assembly —
// together with the baselines and metrics needed to regenerate every table
// and figure of the paper's evaluation.
//
// The typical flow:
//
//	b, _ := crowdmap.BuildingByName("Lab1")
//	ds, _ := crowdmap.GenerateDataset(b, crowdmap.DefaultDatasetSpec(42))
//	res, _ := crowdmap.Reconstruct(ds.Captures, crowdmap.DefaultConfig())
//	rep, _ := crowdmap.Evaluate(res, b)
//	fmt.Println(rep.Hallway) // P/R/F against ground truth
package crowdmap

import (
	"fmt"
	"time"

	"crowdmap/internal/aggregate"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/crowd"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/forcedir"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/layout"
	"crowdmap/internal/obs"
	"crowdmap/internal/quality"
	"crowdmap/internal/trajectory"
	"crowdmap/internal/vision/pano"
	"crowdmap/internal/world"
)

// Re-exported domain types: the public API surface for applications.
type (
	// Capture is one uploaded sensor-rich video session.
	Capture = crowd.Capture
	// Dataset is a generated crowdsourced corpus for one building.
	Dataset = crowd.Dataset
	// DatasetSpec sizes a synthetic dataset.
	DatasetSpec = crowd.Spec
	// User is a simulated crowdsourcing contributor.
	User = crowd.User
	// Building is a ground-truth indoor environment.
	Building = world.Building
	// Room is a ground-truth room.
	Room = world.Room
	// Plan is a reconstructed floor plan.
	Plan = floorplan.Plan
	// PlacedRoom is a reconstructed, placed room.
	PlacedRoom = floorplan.Room
	// Track is a dead-reckoned trajectory with its key-frames.
	Track = aggregate.Track
	// Trajectory is a time-ordered position sequence.
	Trajectory = trajectory.Trajectory
	// KeyFrame is a selected video frame with derived features.
	KeyFrame = keyframe.KeyFrame
	// MetricsRegistry is a live metrics sink; pass one in Config.Metrics to
	// observe a reconstruction while it runs (see internal/obs for the
	// naming scheme).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time view of pipeline metrics, carried
	// on every Result.
	MetricsSnapshot = obs.Snapshot
	// PairCache memoizes track pair-comparison decisions across
	// reconstruction jobs, keyed by capture content fingerprints; pass one
	// in Config.PairCache so incremental runs only compare new content.
	PairCache = aggregate.PairCache
	// CheckpointJournal persists stage completion records so a restarted
	// process resumes a reconstruction from the pair decisions it already
	// made. Build one with pipeline.NewJournal over a document store
	// (in production the WAL-backed store) and pass it in
	// Config.Checkpoints together with a Config.JobID. A nil journal is a
	// valid no-op.
	CheckpointJournal = pipeline.Journal
	// QualityParams tunes the crowdsourced-input quality gate (bounds,
	// policy, sanitization budget); see internal/quality.
	QualityParams = quality.Params
	// QualityReport is the gate's per-capture verdict: admissibility,
	// score, and machine-readable reason codes.
	QualityReport = quality.Report
)

// DefaultQualityParams returns the gate bounds used by DefaultConfig:
// lenient policy, thresholds generous enough that any plausible real
// capture passes untouched.
func DefaultQualityParams() QualityParams { return quality.DefaultParams() }

// NewMetricsRegistry returns an empty metrics registry for Config.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// NewPairCache returns a pair-comparison cache bounded to maxEntries
// decisions (≤ 0 selects aggregate.DefaultPairCacheSize). Safe for
// concurrent use and for sharing across sequential Reconstruct calls.
func NewPairCache(maxEntries int) *PairCache { return aggregate.NewPairCache(maxEntries) }

// Config collects every tunable of the reconstruction pipeline. The zero
// value is not valid; start from DefaultConfig.
type Config struct {
	// Keyframe tunes key-frame selection and the hierarchical comparison.
	Keyframe keyframe.Params
	// Aggregate tunes the sequence-based trajectory aggregation.
	Aggregate aggregate.Params
	// Skeleton tunes hallway occupancy-grid reconstruction.
	Skeleton floorplan.SkeletonParams
	// Layout tunes panorama-based room layout estimation.
	Layout layout.Params
	// Pano tunes panorama admission and stitching.
	Pano pano.Params
	// ForceDir tunes the force-directed room arrangement.
	ForceDir forcedir.Params
	// Workers bounds pipeline parallelism; 0 uses all CPUs.
	Workers int
	// RoomMergeRadius deduplicates room observations whose estimated
	// centers fall within this distance, meters.
	RoomMergeRadius float64
	// ReleaseFrames frees each loaded capture's frame pixels as soon as
	// its track is built. The loaded captures are mutated (Reconstruct's
	// are the caller's); enable for large batch runs where the caller does
	// not reuse the frames. A ReconstructDelta memo hit loads nothing.
	ReleaseFrames bool
	// Seed drives the pipeline's stochastic stages (layout sampling).
	Seed int64
	// Metrics, when non-nil, receives stage timings and counters while the
	// pipeline runs (shareable with the cloud server's registry so one
	// /metrics endpoint covers ingestion and reconstruction). When nil,
	// Reconstruct uses a private registry; either way Result.Metrics
	// carries the final snapshot.
	Metrics *MetricsRegistry
	// PairCache, when non-nil, memoizes aggregation pair comparisons across
	// Reconstruct calls: a pair of captures whose content fingerprints and
	// comparison parameters are unchanged reuses the previous decision
	// instead of re-running the anchor search. Decisions are identical with
	// or without the cache; only the work is skipped. Changing comparison
	// parameters flushes it automatically. Nil disables caching.
	PairCache *PairCache
	// JobID names this reconstruction for checkpointing (typically the
	// building). Checkpoint records are keyed by (JobID, stage, corpus
	// fingerprint); an empty JobID disables checkpointing.
	JobID string
	// Checkpoints, when non-nil and JobID is set, receives the
	// pair-comparison stage's completion record, with its decisions
	// attached as the "pairs" payload. A restarted run with the same JobID
	// and corpus reloads those decisions instead of comparing again. Nil
	// disables checkpointing.
	Checkpoints *CheckpointJournal
	// Quality, when non-nil, enables the crowdsourced-input quality gate:
	// each capture is validated, scored, and (under the lenient policy)
	// sanitized before the pipeline runs. Irrecoverable captures are
	// excluded — recorded on Result.Excluded, never failing the job — and
	// low-score captures lose aggregation ties. Nil disables the gate, the
	// pre-existing trust-the-input behavior.
	Quality *QualityParams
	// Mode selects which sensing modalities drive the run: ModeVision (the
	// zero value — the paper's video pipeline, unchanged), ModeTrajectory
	// (dead-reckoned trajectories only, CrowdInside style), or ModeHybrid
	// (per-modality routing: captures whose video fails the gate but whose
	// IMU is sound contribute trajectory density instead of an exclusion).
	// In trajectory and hybrid modes a nil Quality still works: trajectory
	// mode then routes every capture to dead reckoning unscored, and hybrid
	// mode degenerates to vision behavior (with no gate nothing is ever
	// rejected, so there is nothing to rescue).
	Mode Mode
	// DeltaRebuildEvery, in delta mode (ReconstructDelta with a
	// DeltaState), forces a full rebuild — dropping every memoized stage
	// artifact and recomputing from scratch — every N-th run, as a
	// correctness backstop against silent memo corruption. Zero never
	// forces a rebuild. Ignored by the batch entry points.
	DeltaRebuildEvery int
	// StageBudget is a soft wall-clock budget per pipeline stage. A stage
	// that overruns is not cancelled — abandoning work mid-stage would
	// forfeit what the checkpoint journal could bank — but the overrun is
	// counted on pipeline.budget.exceeded for operator alerting. Zero
	// disables the watchdog.
	StageBudget time.Duration
}

// DefaultConfig returns the tuning used for the paper-reproduction
// experiments.
func DefaultConfig() Config {
	kf := keyframe.DefaultParams()
	agg := aggregate.DefaultParams()
	agg.KF = kf
	qp := quality.DefaultParams()
	return Config{
		Keyframe:        kf,
		Aggregate:       agg,
		Skeleton:        floorplan.DefaultSkeletonParams(),
		Layout:          layout.DefaultParams(),
		Pano:            pano.DefaultParams(),
		ForceDir:        forcedir.DefaultParams(),
		Workers:         0,
		RoomMergeRadius: 2.0,
		Seed:            1,
		Quality:         &qp,
	}
}

// Validate checks the full configuration.
func (c Config) Validate() error {
	if err := c.Keyframe.Validate(); err != nil {
		return fmt.Errorf("crowdmap: keyframe config: %w", err)
	}
	if err := c.Aggregate.Validate(); err != nil {
		return fmt.Errorf("crowdmap: aggregate config: %w", err)
	}
	if err := c.Skeleton.Validate(); err != nil {
		return fmt.Errorf("crowdmap: skeleton config: %w", err)
	}
	if err := c.Layout.Validate(); err != nil {
		return fmt.Errorf("crowdmap: layout config: %w", err)
	}
	if err := c.Pano.Validate(); err != nil {
		return fmt.Errorf("crowdmap: pano config: %w", err)
	}
	if err := c.ForceDir.Validate(); err != nil {
		return fmt.Errorf("crowdmap: forcedir config: %w", err)
	}
	if c.RoomMergeRadius < 0 {
		return fmt.Errorf("crowdmap: room merge radius must be ≥ 0, got %g", c.RoomMergeRadius)
	}
	if c.Quality != nil {
		if err := c.Quality.Validate(); err != nil {
			return fmt.Errorf("crowdmap: quality config: %w", err)
		}
	}
	switch c.Mode {
	case ModeVision, ModeTrajectory, ModeHybrid:
	default:
		return fmt.Errorf("crowdmap: unknown reconstruction mode %d", int(c.Mode))
	}
	if c.DeltaRebuildEvery < 0 {
		return fmt.Errorf("crowdmap: delta rebuild interval must be ≥ 0, got %d", c.DeltaRebuildEvery)
	}
	if c.StageBudget < 0 {
		return fmt.Errorf("crowdmap: stage budget must be ≥ 0, got %v", c.StageBudget)
	}
	return nil
}

// Buildings returns the three ground-truth evaluation buildings (Lab1,
// Lab2, Gym analogues).
func Buildings() []*Building { return world.Buildings() }

// BuildingByName returns one evaluation building by name.
func BuildingByName(name string) (*Building, error) { return world.ByName(name) }

// DefaultDatasetSpec mirrors the paper's per-building workload at
// simulation scale.
func DefaultDatasetSpec(seed int64) DatasetSpec { return crowd.DefaultSpec(seed) }

// GenerateDataset synthesizes a crowdsourced capture corpus for a
// building: simulated users walking SWS hallway routes and performing
// SRS room visits under day/night lighting.
func GenerateDataset(b *Building, spec DatasetSpec) (*Dataset, error) {
	return crowd.Generate(b, spec)
}
