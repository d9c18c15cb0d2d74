// Package keyframe implements CrowdMap's video key-frame machinery (paper
// Section III-B.I): HOG-gated key-frame selection that thins near-duplicate
// frames, per-key-frame feature extraction, and the hierarchical two-stage
// key-frame comparison — a cheap weighted combination of color indexing,
// shape matching and wavelet signatures (score S1, threshold hs) gating the
// precise SURF mutual-nearest-neighbor match (score S2, thresholds hd, hf).
// HOG is a selection-only gate: Extract keeps only the last key-frame's
// descriptor, and nothing after selection computes or stores one.
package keyframe

import (
	"fmt"

	"crowdmap/internal/crowd"
	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/obs"
	"crowdmap/internal/sensor"
	"crowdmap/internal/trajectory"
	"crowdmap/internal/vision/histogram"
	"crowdmap/internal/vision/hog"
	"crowdmap/internal/vision/shape"
	"crowdmap/internal/vision/surf"
	"crowdmap/internal/vision/wavelet"
	"crowdmap/internal/world"
)

// KeyFrame is a selected video frame with the features the hierarchical
// comparison reads (not the HOG that selected it) and the trajectory
// context needed by aggregation and panorama generation.
type KeyFrame struct {
	T float64
	// Image is retained for panorama stitching.
	Image *img.RGB
	// Heading is the estimated camera heading at capture time (gyro +
	// compass fusion).
	Heading float64
	// LocalPos is the dead-reckoned position at capture time, in the
	// capture session's local frame.
	LocalPos geom.Pt
	// TruthPose is ground truth, for evaluation only.
	TruthPose world.Pose

	Hist    *histogram.Hist
	Shape   *shape.Descriptor
	Wavelet *wavelet.Signature
	// WaveletFlat is the sorted-slice form of Wavelet, built once at
	// extraction so the batched stage-1 scorer compares signatures with a
	// merge join instead of per-pair map walks. Scores are bit-identical
	// to the map form; CompareBlock flattens on the fly when it is nil
	// (e.g. for KeyFrames constructed by hand in tests).
	WaveletFlat *wavelet.Flat
	SURF        []surf.Feature
	// SURFIndex is the grid-bucketed nearest-neighbor index over SURF,
	// built once at extraction so every pairwise comparison reuses it.
	// Compare falls back to the brute-force scan when it is nil (e.g. for
	// KeyFrames constructed by hand in tests).
	SURFIndex *surf.Index
}

// Params collects every threshold of the key-frame subsystem. Names follow
// the paper: hg gates key-frame selection, hs gates stage 1, hd and hf
// gate stage 2.
type Params struct {
	// HG: a frame becomes a key-frame when its HOG correlation (S_cc) with
	// the previous key-frame drops below HG (noticeable camera motion).
	HG float64
	// HeadingGate promotes a frame to key-frame when the camera heading has
	// rotated this much since the last key-frame, radians — rotation is
	// camera motion even when the scene texture barely changes (blank
	// walls during an SRS spin), and panorama coverage depends on it.
	HeadingGate float64
	// Stage-1 channel weights (color, shape, wavelet) and threshold HS.
	WColor, WShape, WWavelet float64
	HS                       float64
	// Stage-2 SURF matching: descriptor distance threshold HD and
	// similarity threshold HF.
	HD float64
	HF float64

	HOG     hog.Params
	Shape   shape.Params
	Wavelet wavelet.Params
	SURF    surf.Params
	// HistBins is the per-channel color histogram resolution.
	HistBins int

	// StayRadius is the SRS stay-point radius in meters: a key-frame whose
	// dead-reckoned position is within this radius of the session start is
	// treated as part of the stationary room scan (its pixels are retained
	// for panorama stitching, and srsKeyFrames selects it). Zero means
	// DefaultStayRadius; it must not be negative.
	StayRadius float64

	// Obs, when non-nil, receives selection and comparison counters
	// (keyframe.frames/kept/dropped, compare.s1.*, compare.s2.*). A nil
	// registry is a no-op; the field does not affect behavior.
	Obs *obs.Registry
}

// DefaultParams returns the tuning used across the evaluation.
func DefaultParams() Params {
	return Params{
		HG:          0.92,
		HeadingGate: 0.2094395102393195, // 12°
		WColor:      0.4,
		WShape:      0.3,
		WWavelet:    0.3,
		HS:          0.55,
		HD:          0.12,
		HF:          0.09,
		HOG:         hog.DefaultParams(),
		Shape:       shape.DefaultParams(),
		Wavelet:     wavelet.DefaultParams(),
		SURF:        surf.DefaultParams(),
		HistBins:    8,
		StayRadius:  DefaultStayRadius,
	}
}

// DefaultStayRadius is the stay-point radius (meters) used when
// Params.StayRadius is zero. SRS spins wander well under a meter of
// dead-reckoned drift, so 0.75 m keeps the scan while excluding the first
// walking steps out of the room.
const DefaultStayRadius = 0.75

// EffectiveStayRadius resolves the configured stay radius, applying the
// default when unset.
func (p Params) EffectiveStayRadius() float64 {
	if p.StayRadius > 0 {
		return p.StayRadius
	}
	return DefaultStayRadius
}

// Signature returns a stable, versioned encoding of every extraction- and
// comparison-relevant field. It is embedded in persisted cache keys and
// per-capture artifact fingerprints, so it must be a pure function of the
// field values across process restarts: each field is written explicitly
// and the Obs registry pointer is excluded (it never affects behavior).
// Bump the version prefix whenever a field is added, removed, or
// reinterpreted so persisted artifacts invalidate instead of being reused
// under different semantics.
func (p Params) Signature() string {
	return fmt.Sprintf(
		"kf-v1;hg=%g;headgate=%g;wc=%g;wsh=%g;wwav=%g;hs=%g;hd=%g;hf=%g;"+
			"hog=%d,%d,%d,%d;shape=%d,%d,%g;wav=%d,%d;surf=%g,%d;bins=%d;stay=%g",
		p.HG, p.HeadingGate, p.WColor, p.WShape, p.WWavelet, p.HS, p.HD, p.HF,
		p.HOG.CellSize, p.HOG.BlockSize, p.HOG.Bins, p.HOG.BlockStride,
		p.Shape.GridW, p.Shape.GridH, p.Shape.EdgeThreshold,
		p.Wavelet.Size, p.Wavelet.TopK,
		p.SURF.HessianThreshold, p.SURF.MaxFeatures,
		p.HistBins, p.StayRadius)
}

// Validate checks threshold sanity.
func (p Params) Validate() error {
	if p.HG <= 0 || p.HG > 1 {
		return fmt.Errorf("keyframe: HG must be in (0, 1], got %g", p.HG)
	}
	if p.HS < 0 || p.HS > 1 {
		return fmt.Errorf("keyframe: HS must be in [0, 1], got %g", p.HS)
	}
	if p.HD <= 0 {
		return fmt.Errorf("keyframe: HD must be positive, got %g", p.HD)
	}
	if p.HF < 0 || p.HF > 1 {
		return fmt.Errorf("keyframe: HF must be in [0, 1], got %g", p.HF)
	}
	w := p.WColor + p.WShape + p.WWavelet
	if w <= 0 {
		return fmt.Errorf("keyframe: stage-1 weights sum to %g", w)
	}
	if p.StayRadius < 0 {
		return fmt.Errorf("keyframe: StayRadius must be non-negative, got %g", p.StayRadius)
	}
	return nil
}

// Extract runs the full front-end on one capture session: dead reckoning
// for per-frame local positions and headings, HOG-gated key-frame
// selection, and feature extraction on the survivors.
//
// It returns the key-frames and the dead-reckoned trajectory.
func Extract(c *crowd.Capture, p Params) ([]*KeyFrame, *trajectory.Trajectory, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if len(c.Frames) == 0 {
		return nil, nil, fmt.Errorf("keyframe: capture %s has no frames", c.ID)
	}
	traj, err := trajectory.DeadReckon(c.IMU, stepLengthOf(c))
	if err != nil {
		return nil, nil, fmt.Errorf("keyframe: dead reckoning %s: %w", c.ID, err)
	}
	traj.ID = c.ID
	headings := sensor.EstimateHeadings(c.IMU)
	var kfs []*KeyFrame
	var lastHOG hog.Descriptor
	var lastHeading float64
	imuIdx := 0
	for i := range c.Frames {
		f := &c.Frames[i]
		// The luma plane lives only for this iteration: nothing below
		// retains it, so it comes from the buffer pool. Error paths skip
		// the release — the pool does not leak, it just re-allocates.
		luma := img.AcquireGray(f.Image.W, f.Image.H)
		f.Image.LumaInto(luma)
		hd, err := hog.Compute(luma, p.HOG)
		if err != nil {
			return nil, nil, fmt.Errorf("keyframe: HOG on %s frame %d: %w", c.ID, i, err)
		}
		for imuIdx+1 < len(c.IMU) && c.IMU[imuIdx+1].T <= f.T {
			imuIdx++
		}
		if lastHOG != nil {
			scc, err := hog.Correlation(hd, lastHOG)
			if err != nil {
				return nil, nil, err
			}
			turned := p.HeadingGate > 0 &&
				absAngle(headings[imuIdx]-lastHeading) >= p.HeadingGate
			if scc >= p.HG && !turned {
				img.ReleaseGray(luma)
				continue // camera barely moved; not a key-frame
			}
		}
		lastHOG = hd
		lastHeading = headings[imuIdx]
		pos, err := traj.PositionAt(f.T)
		if err != nil {
			return nil, nil, err
		}
		kf := &KeyFrame{
			T:         f.T,
			Image:     f.Image,
			Heading:   headings[imuIdx],
			LocalPos:  pos,
			TruthPose: f.TruthPose,
		}
		if err := kf.describe(luma, p); err != nil {
			return nil, nil, err
		}
		img.ReleaseGray(luma)
		kfs = append(kfs, kf)
	}
	// Memory: full frames are only needed downstream for panorama
	// stitching, which consumes stationary (SRS) key-frames. Key-frames
	// captured while walking can drop their pixels once features are out.
	if len(traj.Points) > 0 {
		start := traj.Points[0].Pos
		stay := p.EffectiveStayRadius()
		for _, kf := range kfs {
			if c.Kind == crowd.KindSWS || kf.LocalPos.Dist(start) > stay {
				kf.Image = nil
			}
		}
	}
	p.Obs.Counter("keyframe.frames").Add(int64(len(c.Frames)))
	p.Obs.Counter("keyframe.kept").Add(int64(len(kfs)))
	p.Obs.Counter("keyframe.dropped").Add(int64(len(c.Frames) - len(kfs)))
	return kfs, traj, nil
}

// FrameSizeError reports a frame smaller than the smallest frame Extract
// accepts: one HOG block of cells on each side.
type FrameSizeError struct{ W, H, Min int }

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("keyframe: frame %dx%d is below the %dx%d minimum", e.W, e.H, e.Min, e.Min)
}

// Describe extracts one frame's compared features as Extract does for a
// key-frame it keeps, such as a localization query: no trajectory context,
// the frame retained as Image. A frame Extract would refuse is a
// *FrameSizeError.
func Describe(frame *img.RGB, p Params) (*KeyFrame, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if side := p.HOG.BlockSize * p.HOG.CellSize; frame.W < side || frame.H < side {
		return nil, &FrameSizeError{W: frame.W, H: frame.H, Min: side}
	}
	luma := img.AcquireGray(frame.W, frame.H)
	defer img.ReleaseGray(luma)
	frame.LumaInto(luma)
	kf := &KeyFrame{Image: frame}
	if err := kf.describe(luma, p); err != nil {
		return nil, err
	}
	return kf, nil
}

// describe fills the compared features from kf.Image and its luma plane.
func (kf *KeyFrame) describe(luma *img.Gray, p Params) (err error) {
	if kf.Hist, err = histogram.Compute(kf.Image, p.HistBins); err != nil {
		return err
	}
	if kf.Shape, err = shape.Compute(luma, p.Shape); err != nil {
		return err
	}
	if kf.Wavelet, err = wavelet.Compute(luma, p.Wavelet); err != nil {
		return err
	}
	kf.WaveletFlat = kf.Wavelet.Flatten()
	kf.SURF = surf.Extract(luma, p.SURF)
	kf.SURFIndex = surf.NewIndex(kf.SURF)
	return nil
}

func absAngle(a float64) float64 {
	for a > 3.141592653589793 {
		a -= 2 * 3.141592653589793
	}
	for a < -3.141592653589793 {
		a += 2 * 3.141592653589793
	}
	if a < 0 {
		return -a
	}
	return a
}

func stepLengthOf(c *crowd.Capture) float64 {
	if c.StepLengthEst > 0 {
		return c.StepLengthEst
	}
	return 0.7 // population default when the upload lacks a device profile
}

// Stage1 computes the S1 similarity score: the weighted combination of the
// three cheap channels.
func Stage1(a, b *KeyFrame, p Params) (float64, error) {
	cs, err := histogram.Intersection(a.Hist, b.Hist)
	if err != nil {
		return 0, err
	}
	ss, err := shape.Similarity(a.Shape, b.Shape)
	if err != nil {
		return 0, err
	}
	ws, err := wavelet.Similarity(a.Wavelet, b.Wavelet)
	if err != nil {
		return 0, err
	}
	wsum := p.WColor + p.WShape + p.WWavelet
	return (p.WColor*cs + p.WShape*ss + p.WWavelet*ws) / wsum, nil
}

// Compare runs the hierarchical comparison of two key-frames. It returns
// whether they depict the same place, and the stage-2 similarity S2 (zero
// when stage 1 already rejected the pair — the cheap-reject path that makes
// the pipeline scale).
func Compare(a, b *KeyFrame, p Params) (bool, float64, error) {
	p.Obs.Counter("compare.s1.evaluated").Inc()
	s1, err := Stage1(a, b, p)
	if err != nil {
		return false, 0, err
	}
	if s1 < p.HS {
		return false, 0, nil
	}
	p.Obs.Counter("compare.s1.passed").Inc()
	return stage2(a, b, p)
}

// stage2 runs the precise SURF half of the hierarchical comparison — the
// part Compare and CompareBlock share after their stage-1 gates.
func stage2(a, b *KeyFrame, p Params) (bool, float64, error) {
	if len(a.SURF) == 0 || len(b.SURF) == 0 {
		return false, 0, nil
	}
	p.Obs.Counter("compare.s2.evaluated").Inc()
	var s2 float64
	var err error
	if a.SURFIndex.Len() > 0 && b.SURFIndex.Len() > 0 {
		var st surf.Stats
		s2, st, err = surf.SimilarityIndexed(a.SURFIndex, b.SURFIndex, p.HD)
		p.Obs.Counter("surf.index.queries").Add(st.Queries)
		p.Obs.Counter("surf.index.candidates").Add(st.Candidates)
		p.Obs.Counter("surf.index.screened").Add(st.Screened)
		p.Obs.Counter("surf.index.cells").Add(st.Cells)
	} else {
		p.Obs.Counter("surf.index.fallback").Inc()
		s2, err = surf.Similarity(a.SURF, b.SURF, p.HD)
	}
	if err != nil {
		return false, 0, err
	}
	same := s2 > p.HF
	if same {
		p.Obs.Counter("compare.s2.passed").Inc()
	}
	return same, s2, nil
}
