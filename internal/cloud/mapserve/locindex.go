package mapserve

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"

	"crowdmap"
	"crowdmap/internal/geom"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/vision/histogram"
	"crowdmap/internal/vision/shape"
	"crowdmap/internal/vision/surf"
	"crowdmap/internal/vision/wavelet"
)

// Localization-index persistence is gob+gzip over the primary features
// the hierarchical comparison reads, with the derived structures (the
// wavelet signature's map and re-flattened forms, the SURF
// nearest-neighbor index) rebuilt by deterministic constructors. Publish
// caches the index it builds from the artifact it encodes, through the
// same code the decoder runs, so a seeded and a decoded index drive
// bit-identical comparison decisions. Index entries drop key-frame
// pixels (Image). Indexes written
// when entries still carried a HOG descriptor decode to the same
// features: gob skips fields the receiving type lacks, and their wavelet
// field's names and integer kinds match wavelet.Flat's.

// locKF is one persisted index entry: a key-frame's primary features plus
// its global-frame pose.
type locKF struct {
	TrackID string
	Pos     geom.Pt
	Heading float64
	Hist    *histogram.Hist
	Shape   *shape.Descriptor
	// Wavelet is the signature's sorted-slice form: the live map form
	// would gob-encode in randomized iteration order and make the index
	// bytes (and the published ETag) differ between identical rebuilds.
	Wavelet *wavelet.Flat
	SURF    []surf.Feature
}

// locArtifact is the persisted form of one building's index.
type locArtifact struct {
	// Params pins the extraction/comparison parameter signature the
	// key-frames were built with; a decoded index is only comparable
	// under the same signature (the published ETag also covers it).
	Params string
	KFs    []locKF
}

// locIndex is the decoded, query-ready form: key-frames with derived
// structures rebuilt, parallel to their poses.
type locIndex struct {
	kfs   []*keyframe.KeyFrame
	poses []globalPose
}

// buildLocArtifact assembles the persistable index from a completed
// reconstruction's placed key-frames.
func buildLocArtifact(res *crowdmap.Result, p keyframe.Params) *locArtifact {
	placed := res.PlacedKeyFrames()
	art := &locArtifact{Params: p.Signature(), KFs: make([]locKF, len(placed))}
	for i, pk := range placed {
		art.KFs[i] = locKF{
			TrackID: pk.TrackID,
			Pos:     pk.Pos,
			Heading: pk.Heading,
			Hist:    pk.KF.Hist,
			Shape:   pk.KF.Shape,
			Wavelet: pk.KF.WaveletFlat,
			SURF:    pk.KF.SURF,
		}
	}
	return art
}

// Gob numbers each type the first time the process encodes it, and those
// numbers are part of the encoded bytes, which for the index are hashed
// into the published ETag. Encoding both artifact types once at init
// fixes their numbers before any other gob use in the process, so an
// ETag depends on the plan's content alone, not on what the process
// encoded earlier. The order (index, then plan record) is the order the
// first Publish in a fresh process encodes them, which keeps ETags
// published before this registration existed.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{&locArtifact{}, &planRecord{}} {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("mapserve: register gob type %T: %v", v, err))
		}
	}
}

// encodeLocIndex serializes an index artifact (gob into gzip).
func encodeLocIndex(art *locArtifact) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(art); err != nil {
		return nil, fmt.Errorf("encode index: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("encode index: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeLocIndex deserializes an index artifact and rebuilds the derived
// per-key-frame structures exactly as extraction does. Failures are the
// typed *CodecError, never a panic.
func decodeLocIndex(data []byte) (*locIndex, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, &CodecError{Artifact: "localization index", Err: err}
	}
	var art locArtifact
	if err := gob.NewDecoder(zr).Decode(&art); err != nil {
		return nil, &CodecError{Artifact: "localization index", Err: err}
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, &CodecError{Artifact: "localization index", Err: err}
	}
	if err := zr.Close(); err != nil {
		return nil, &CodecError{Artifact: "localization index", Err: err}
	}
	return art.index(), nil
}

// index builds the query-ready form of an artifact: fresh key-frames
// holding only the persisted features plus the derived structures
// extraction would build, and no pixels.
func (art *locArtifact) index() *locIndex {
	idx := &locIndex{
		kfs:   make([]*keyframe.KeyFrame, len(art.KFs)),
		poses: make([]globalPose, len(art.KFs)),
	}
	for i, a := range art.KFs {
		kf := &keyframe.KeyFrame{
			Heading: a.Heading,
			Hist:    a.Hist,
			Shape:   a.Shape,
			SURF:    a.SURF,
		}
		if a.Wavelet != nil {
			kf.Wavelet = a.Wavelet.Signature()
			kf.WaveletFlat = kf.Wavelet.Flatten()
		}
		kf.SURFIndex = surf.NewIndex(kf.SURF)
		idx.kfs[i] = kf
		idx.poses[i] = globalPose{TrackID: a.TrackID, Pos: a.Pos, Heading: a.Heading}
	}
	return idx
}
