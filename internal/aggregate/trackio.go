package aggregate

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"

	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/trajectory"
	"crowdmap/internal/vision/histogram"
	"crowdmap/internal/vision/shape"
	"crowdmap/internal/vision/surf"
	"crowdmap/internal/vision/wavelet"
	"crowdmap/internal/world"
)

// Track artifact serialization: a delta reconstruction persists each
// extracted track through the checkpoint journal so a restarted daemon
// never re-extracts an unchanged capture. The codec stores only primary
// extraction output — the derived structures (the flattened wavelet
// signature and the SURF nearest-neighbor index) are rebuilt on decode by
// the same deterministic constructors keyframe.Extract uses, so a decoded
// track drives decisions bit-identical to the freshly extracted one.
// Gob keeps float64 values exact; gzip keeps the journal entries (which
// retain SRS key-frame pixels for panorama stitching) compact. Artifacts
// written while key-frames still carried a HOG descriptor decode to the
// same features: gob skips fields the receiving type lacks.

// trackArtifact mirrors Track minus run-local state: Quality is stamped
// per run by the quality gate, so it is deliberately not persisted.
type trackArtifact struct {
	ID    string
	Night bool
	Hash  string
	Traj  trajectory.Trajectory
	KFs   []kfArtifact
}

// kfArtifact mirrors keyframe.KeyFrame minus the derived WaveletFlat and
// SURFIndex (rebuilt on decode; surf.Index has unexported internals by
// design).
type kfArtifact struct {
	T         float64
	Image     *img.RGB
	Heading   float64
	LocalPos  geom.Pt
	TruthPose world.Pose
	Hist      *histogram.Hist
	Shape     *shape.Descriptor
	Wavelet   *wavelet.Signature
	SURF      []surf.Feature
}

// EncodeTrack serializes one extracted track for journal persistence.
func EncodeTrack(t *Track) ([]byte, error) {
	if t == nil || t.Traj == nil {
		return nil, fmt.Errorf("aggregate: encode nil track")
	}
	art := trackArtifact{
		ID:    t.ID,
		Night: t.Night,
		Hash:  t.Hash,
		Traj:  *t.Traj,
		KFs:   make([]kfArtifact, len(t.KFs)),
	}
	for i, kf := range t.KFs {
		art.KFs[i] = kfArtifact{
			T:         kf.T,
			Image:     kf.Image,
			Heading:   kf.Heading,
			LocalPos:  kf.LocalPos,
			TruthPose: kf.TruthPose,
			Hist:      kf.Hist,
			Shape:     kf.Shape,
			Wavelet:   kf.Wavelet,
			SURF:      kf.SURF,
		}
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(&art); err != nil {
		return nil, fmt.Errorf("aggregate: encode track %s: %w", t.ID, err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("aggregate: encode track %s: %w", t.ID, err)
	}
	return buf.Bytes(), nil
}

// DecodeError is the typed failure of DecodeTrack: the artifact bytes
// are truncated, garbled, or otherwise not a valid track artifact.
// Callers match it with errors.As to route corrupt artifacts to the
// drop-and-re-extract repair path (and count them) instead of failing
// the run on a raw gzip/gob error.
type DecodeError struct {
	Err error
}

func (e *DecodeError) Error() string { return "aggregate: decode track: " + e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// DecodeTrack deserializes a persisted track and rebuilds its derived
// structures exactly as extraction does. Track.Quality is zero: the
// caller stamps the current run's gate score. Any failure — at the gzip
// layer, the gob layer, or structural validation — is a *DecodeError;
// corrupted input of any shape returns it rather than panicking (pinned
// by FuzzDecodeTrack).
func DecodeTrack(data []byte) (*Track, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, &DecodeError{Err: err}
	}
	var art trackArtifact
	if err := gob.NewDecoder(zr).Decode(&art); err != nil {
		return nil, &DecodeError{Err: err}
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, &DecodeError{Err: err}
	}
	if err := zr.Close(); err != nil {
		return nil, &DecodeError{Err: err}
	}
	traj := art.Traj
	t := &Track{
		ID:    art.ID,
		Night: art.Night,
		Hash:  art.Hash,
		Traj:  &traj,
		KFs:   make([]*keyframe.KeyFrame, len(art.KFs)),
	}
	for i, a := range art.KFs {
		kf := &keyframe.KeyFrame{
			T:         a.T,
			Image:     a.Image,
			Heading:   a.Heading,
			LocalPos:  a.LocalPos,
			TruthPose: a.TruthPose,
			Hist:      a.Hist,
			Shape:     a.Shape,
			Wavelet:   a.Wavelet,
			SURF:      a.SURF,
		}
		// Rebuild derived structures with the constructors Extract uses;
		// both are deterministic functions of the primary fields.
		if kf.Wavelet != nil {
			kf.WaveletFlat = kf.Wavelet.Flatten()
		}
		kf.SURFIndex = surf.NewIndex(kf.SURF)
		t.KFs[i] = kf
	}
	return t, nil
}
