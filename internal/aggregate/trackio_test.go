package aggregate

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"reflect"
	"testing"

	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/mathx"
	"crowdmap/internal/trajectory"
	"crowdmap/internal/vision/histogram"
	"crowdmap/internal/vision/hog"
	"crowdmap/internal/vision/shape"
	"crowdmap/internal/vision/surf"
	"crowdmap/internal/vision/wavelet"
	"crowdmap/internal/world"
)

// TestTrackCodecRoundTrip pins the journal-persistence contract: a
// decoded track must be indistinguishable from the freshly extracted one
// — derived structures (flattened wavelet, SURF index) included — except
// for Quality, which is deliberately not persisted.
func TestTrackCodecRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("renders key-frames")
	}
	tr := buildTracks(t, world.Lab2(), [][2]geom.Pt{{geom.P(3, 7.5), geom.P(22, 7.5)}}, 41)[0]
	tr.Hash = "fp-roundtrip"
	tr.Night = true
	tr.Quality = 0.83

	data, err := EncodeTrack(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrack(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Quality != 0 {
		t.Errorf("Quality = %g persisted, want 0 (stamped per run)", got.Quality)
	}
	want := *tr
	want.Quality = 0
	if got.ID != want.ID || got.Night != want.Night || got.Hash != want.Hash {
		t.Errorf("header fields changed: got %q/%v/%q", got.ID, got.Night, got.Hash)
	}
	if !reflect.DeepEqual(got.Traj, want.Traj) {
		t.Error("trajectory changed in round trip")
	}
	if len(got.KFs) != len(want.KFs) {
		t.Fatalf("key-frame count %d, want %d", len(got.KFs), len(want.KFs))
	}
	for i := range want.KFs {
		if !reflect.DeepEqual(got.KFs[i], want.KFs[i]) {
			t.Errorf("key-frame %d changed in round trip (derived structures included)", i)
		}
	}
	// Encode→decode is idempotent: a re-persisted decoded track decodes to
	// the same value. (The bytes themselves may differ — gob serializes
	// maps in randomized order — which is fine: the journal keys artifacts
	// by fingerprint, never by payload bytes.)
	data2, err := EncodeTrack(got)
	if err != nil {
		t.Fatal(err)
	}
	again, err := DecodeTrack(data2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Error("second decode diverged from the first")
	}
}

func TestTrackCodecErrors(t *testing.T) {
	if _, err := EncodeTrack(nil); err == nil {
		t.Error("encoding a nil track succeeded")
	}
	if _, err := EncodeTrack(&Track{ID: "x"}); err == nil {
		t.Error("encoding a track without a trajectory succeeded")
	}
	if _, err := DecodeTrack([]byte("not gzip")); err == nil {
		t.Error("decoding junk succeeded")
	}
}

// legacyKFArtifact and legacyTrackArtifact are the track artifact as it
// was persisted while key-frames still carried their HOG descriptor.
type legacyKFArtifact struct {
	T         float64
	Image     *img.RGB
	Heading   float64
	LocalPos  geom.Pt
	TruthPose world.Pose
	HOG       hog.Descriptor
	Hist      *histogram.Hist
	Shape     *shape.Descriptor
	Wavelet   *wavelet.Signature
	SURF      []surf.Feature
}

type legacyTrackArtifact struct {
	ID    string
	Night bool
	Hash  string
	Traj  trajectory.Trajectory
	KFs   []legacyKFArtifact
}

// TestTrackCodecDecodesLegacyHOGArtifacts: a track journaled before
// key-frames dropped HOG decodes to the live key-frames (gob skips the
// field the receiving type lacks), so the comparison reaches the same
// decisions and S2 scores and no journal needs re-extraction.
func TestTrackCodecDecodesLegacyHOGArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("renders key-frames")
	}
	tr := buildTracks(t, world.Lab2(), [][2]geom.Pt{{geom.P(3, 7.5), geom.P(22, 7.5)}}, 41)[0]
	rng := mathx.NewRNG(3)
	art := legacyTrackArtifact{ID: tr.ID, Hash: "legacy", Traj: *tr.Traj}
	for _, kf := range tr.KFs {
		desc := make(hog.Descriptor, 7560) // the default HOG length on a survey frame
		for i := range desc {
			desc[i] = 0.2 * rng.Float64()
		}
		art.KFs = append(art.KFs, legacyKFArtifact{
			T: kf.T, Image: kf.Image, Heading: kf.Heading, LocalPos: kf.LocalPos, TruthPose: kf.TruthPose,
			HOG: desc, Hist: kf.Hist, Shape: kf.Shape, Wavelet: kf.Wavelet, SURF: kf.SURF,
		})
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(&art); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrack(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.KFs) != len(tr.KFs) {
		t.Fatalf("decoded %d key-frames, want %d", len(got.KFs), len(tr.KFs))
	}
	p := keyframe.DefaultParams()
	query := tr.KFs[len(tr.KFs)/2]
	for i, live := range tr.KFs {
		if !reflect.DeepEqual(got.KFs[i], live) {
			t.Errorf("key-frame %d: legacy artifact decoded to different features", i)
		}
		wantSame, wantS2, wantErr := keyframe.Compare(query, live, p)
		gotSame, gotS2, gotErr := keyframe.Compare(query, got.KFs[i], p)
		if wantSame != gotSame || wantS2 != gotS2 || (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("kf %d: compare (%v, %v, %v) live vs (%v, %v, %v) decoded", i, wantSame, wantS2, wantErr, gotSame, gotS2, gotErr)
		}
	}
}
