package mapserve

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"testing"

	"crowdmap/internal/cloud/store"
	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/obs"
	"crowdmap/internal/vision/histogram"
	"crowdmap/internal/vision/hog"
	"crowdmap/internal/vision/shape"
	"crowdmap/internal/vision/surf"
)

// legacyLocWavelet, legacyLocKF and legacyLocArtifact are the index as it
// was persisted while entries still carried the key-frame's HOG
// descriptor, with the wavelet signature in its own slice type.
type legacyLocWavelet struct {
	Size    int
	Average float64
	Idx     []int
	Sign    []int8
}

type legacyLocKF struct {
	TrackID string
	Pos     geom.Pt
	Heading float64
	HOG     hog.Descriptor
	Hist    *histogram.Hist
	Shape   *shape.Descriptor
	Wavelet *legacyLocWavelet
	SURF    []surf.Feature
}

type legacyLocArtifact struct {
	Params string
	KFs    []legacyLocKF
}

// indexBytesPerKFBudget bounds the encoded index per placed key-frame:
// 1.5× the fixture's 19,345 bytes once entries stopped carrying HOG. With
// the descriptor the fixture encodes to 80,640 bytes per key-frame, so
// the budget fails the earlier codec.
const indexBytesPerKFBudget = 29_000

// legacyIndex encodes the fixture's index the way it was written while
// key-frames carried HOG, with each entry's descriptor recomputed from
// its source frame.
func legacyIndex(t *testing.T, f fixtureData, p keyframe.Params) []byte {
	t.Helper()
	art := buildLocArtifact(f.res, p)
	legacy := legacyLocArtifact{Params: art.Params}
	for i, e := range art.KFs {
		frame, _ := queryFrame(t, f, i)
		luma := img.NewGray(frame.Image.W, frame.Image.H)
		frame.Image.LumaInto(luma)
		desc, err := hog.Compute(luma, p.HOG)
		if err != nil {
			t.Fatal(err)
		}
		w := &legacyLocWavelet{Size: e.Wavelet.Size, Average: e.Wavelet.Average, Sign: e.Wavelet.Sign}
		for _, idx := range e.Wavelet.Idx {
			w.Idx = append(w.Idx, int(idx))
		}
		legacy.KFs = append(legacy.KFs, legacyLocKF{
			TrackID: e.TrackID, Pos: e.Pos, Heading: e.Heading, HOG: desc,
			Hist: e.Hist, Shape: e.Shape, Wavelet: w, SURF: e.SURF,
		})
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexCodecDecodesLegacyHOGIndex: an index written before entries
// dropped HOG decodes with the current codec to key-frames that drive the
// hierarchical comparison to the same decisions and S2 scores as the
// live key-frames, and the size budget separates the two encodings.
func TestIndexCodecDecodesLegacyHOGIndex(t *testing.T) {
	f := fixture(t)
	p := keyframe.DefaultParams()
	old := legacyIndex(t, f, p)
	idx, err := decodeLocIndex(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.kfs) != len(f.kfs) {
		t.Fatalf("decoded %d key-frames, want %d", len(idx.kfs), len(f.kfs))
	}
	frame, _ := queryFrame(t, f, len(f.kfs)/2)
	query, err := keyframe.Describe(frame.Image, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, live := range f.kfs {
		wantSame, wantS2, wantErr := keyframe.Compare(query, live, p)
		gotSame, gotS2, gotErr := keyframe.Compare(query, idx.kfs[i], p)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("kf %d: error mismatch live=%v decoded=%v", i, wantErr, gotErr)
		}
		if wantSame != gotSame || wantS2 != gotS2 {
			t.Fatalf("kf %d: compare (%v, %v) live vs (%v, %v) decoded", i, wantSame, wantS2, gotSame, gotS2)
		}
		if idx.poses[i].Pos != live.LocalPos {
			t.Fatalf("kf %d: pose %v, want %v", i, idx.poses[i].Pos, live.LocalPos)
		}
	}

	cur, err := encodeLocIndex(buildLocArtifact(f.res, p))
	if err != nil {
		t.Fatal(err)
	}
	n := len(f.kfs)
	t.Logf("index bytes per key-frame: %d (with HOG: %d)", len(cur)/n, len(old)/n)
	if got := len(cur) / n; got > indexBytesPerKFBudget {
		t.Errorf("index encodes %d bytes per key-frame, budget %d", got, indexBytesPerKFBudget)
	}
	if got := len(old) / n; got <= indexBytesPerKFBudget {
		t.Errorf("HOG-bearing index encodes %d bytes per key-frame, inside the %d budget meant to exclude it", got, indexBytesPerKFBudget)
	}
}

// locateSet answers the fixed query set: every other source frame of the
// fixture capture, without IMU.
func locateSet(t *testing.T, s *Service, f fixtureData) []LocateResult {
	t.Helper()
	var out []LocateResult
	for i := 0; i < len(f.cap.Frames); i += 2 {
		res, err := s.Locate(fixBuilding, f.cap.Frames[i].Image, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestPublishSeedsIndexCache: the index Publish built answers the first
// locate with no cache miss, and a service restarted over the same store,
// which decodes the persisted index instead, gives identical answers.
func TestPublishSeedsIndexCache(t *testing.T) {
	f := fixture(t)
	st := store.New()
	reg := obs.New()
	s := newTestService(t, st, WithObs(reg))
	if _, err := s.Publish(fixBuilding, f.res); err != nil {
		t.Fatal(err)
	}
	seeded := locateSet(t, s, f)
	c := reg.Snapshot().Counters
	if c["mapserve.index.cache.misses"] != 0 || c["mapserve.index.cache.hits"] != int64(len(seeded)) {
		t.Fatalf("after publish: %d misses, %d hits; want 0 and %d",
			c["mapserve.index.cache.misses"], c["mapserve.index.cache.hits"], len(seeded))
	}

	coldReg := obs.New()
	cold := newTestService(t, st, WithObs(coldReg))
	decoded := locateSet(t, cold, f)
	if m := coldReg.Snapshot().Counters["mapserve.index.cache.misses"]; m != 1 {
		t.Fatalf("restarted service: %d index misses, want 1 (one lazy load)", m)
	}
	located := 0
	for i := range seeded {
		if seeded[i] != decoded[i] {
			t.Fatalf("query %d: seeded %+v, restarted %+v", i, seeded[i], decoded[i])
		}
		if seeded[i].Located {
			located++
		}
	}
	if located == 0 {
		t.Fatal("no query of the set located; the comparison would be vacuous")
	}
}

// TestRepairPublishSeedsIndexCache: a republish of the same ETag that
// repairs a lost index document refreshes the cached index in place
// instead of dropping it, so the next locate still has no miss.
func TestRepairPublishSeedsIndexCache(t *testing.T) {
	f := fixture(t)
	st := store.New()
	reg := obs.New()
	s := newTestService(t, st, WithObs(reg))
	v, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(CollServe, indexKey(fixBuilding, v.ETag)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Publish(fixBuilding, f.res); err != nil {
		t.Fatal(err)
	}
	frame, imu := queryFrame(t, f, 0)
	res, err := s.Locate(fixBuilding, frame.Image, imu)
	if err != nil || !res.Located {
		t.Fatalf("locate after repair: %+v, %v", res, err)
	}
	c := reg.Snapshot().Counters
	if c["mapserve.publish.repaired"] != 1 {
		t.Fatalf("mapserve.publish.repaired = %d, want 1", c["mapserve.publish.repaired"])
	}
	if c["mapserve.index.cache.misses"] != 0 {
		t.Fatalf("locate after repair missed the cache %d times, want 0", c["mapserve.index.cache.misses"])
	}
}
