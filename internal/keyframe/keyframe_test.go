package keyframe

import (
	"errors"
	"reflect"
	"testing"

	"crowdmap/internal/crowd"
	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/mathx"
	"crowdmap/internal/world"
)

func testCapture(t *testing.T, b *world.Building, from, to geom.Pt, seed int64) *crowd.Capture {
	t.Helper()
	users, err := crowd.NewPopulation(1, 0, mathx.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := crowd.NewGenerator(b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.SWS("kftest", users[0], from, to, mathx.NewRNG(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"HG zero", func(p *Params) { p.HG = 0 }},
		{"HS above one", func(p *Params) { p.HS = 1.5 }},
		{"HD zero", func(p *Params) { p.HD = 0 }},
		{"HF negative", func(p *Params) { p.HF = -0.1 }},
		{"weights zero", func(p *Params) { p.WColor, p.WShape, p.WWavelet = 0, 0, 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params: %v", err)
	}
}

func TestExtractThinsFramesAndTracksTruth(t *testing.T) {
	b := world.Lab2()
	c := testCapture(t, b, geom.P(3, 7.5), geom.P(30, 7.5), 21)
	kfs, traj, err := Extract(c, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(kfs) == 0 {
		t.Fatal("no key-frames selected")
	}
	if len(kfs) >= len(c.Frames) {
		t.Errorf("selection did not thin: %d of %d", len(kfs), len(c.Frames))
	}
	if traj.Len() < 5 {
		t.Errorf("trajectory too short: %d points", traj.Len())
	}
	// The dead-reckoned local positions, after translation alignment to
	// truth, should be within a couple of meters (noise + drift).
	var off geom.Pt
	for _, kf := range kfs {
		off = off.Add(kf.TruthPose.Pos.Sub(kf.LocalPos))
	}
	off = off.Scale(1 / float64(len(kfs)))
	for _, kf := range kfs {
		if d := kf.LocalPos.Add(off).Dist(kf.TruthPose.Pos); d > 3.0 {
			t.Errorf("key-frame at t=%.1f drifts %0.2f m after alignment", kf.T, d)
		}
	}
	// The compared features are populated; SWS key-frames drop their
	// pixels (only stationary SRS frames feed panoramas).
	for _, kf := range kfs {
		if kf.Hist == nil || kf.Shape == nil || kf.Wavelet == nil || kf.WaveletFlat == nil || kf.SURFIndex == nil {
			t.Fatal("key-frame features missing")
		}
		if kf.Image != nil && kf.LocalPos.Dist(traj.Points[0].Pos) > 1.0 {
			t.Fatal("walking key-frame retained its image")
		}
	}
}

// TestDescribeMatchesExtract pins the query path to the key-frame path:
// describing a kept key-frame's source frame yields the same features,
// and a frame smaller than one HOG block is refused with a typed error.
func TestDescribeMatchesExtract(t *testing.T) {
	c := testCapture(t, world.Lab2(), geom.P(3, 7.5), geom.P(14, 7.5), 31)
	p := DefaultParams()
	kfs, _, err := Extract(c, p)
	if err != nil {
		t.Fatal(err)
	}
	byTime := make(map[float64]*img.RGB, len(c.Frames))
	for i := range c.Frames {
		byTime[c.Frames[i].T] = c.Frames[i].Image
	}
	for i, kf := range kfs {
		d, err := Describe(byTime[kf.T], p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.Hist, kf.Hist) || !reflect.DeepEqual(d.Shape, kf.Shape) ||
			!reflect.DeepEqual(d.Wavelet, kf.Wavelet) || !reflect.DeepEqual(d.WaveletFlat, kf.WaveletFlat) ||
			!reflect.DeepEqual(d.SURF, kf.SURF) {
			t.Fatalf("key-frame %d: described features differ from extracted ones", i)
		}
	}
	side := p.HOG.BlockSize * p.HOG.CellSize
	for _, wh := range [][2]int{{1, 1}, {side - 1, side - 1}, {side - 1, 120}, {128, 1}} {
		_, err := Describe(img.NewRGB(wh[0], wh[1]), p)
		var fse *FrameSizeError
		if !errors.As(err, &fse) || fse.Min != side {
			t.Errorf("%dx%d frame: error %v, want *FrameSizeError with minimum %d", wh[0], wh[1], err, side)
		}
	}
	if _, err := Describe(img.NewRGB(side, side), p); err != nil {
		t.Errorf("%dx%d frame refused: %v", side, side, err)
	}
}

func TestExtractEmptyCapture(t *testing.T) {
	if _, _, err := Extract(&crowd.Capture{ID: "x"}, DefaultParams()); err == nil {
		t.Error("empty capture should error")
	}
}

func TestExtractHGControlsDensity(t *testing.T) {
	b := world.Lab2()
	c := testCapture(t, b, geom.P(3, 7.5), geom.P(30, 7.5), 22)
	loose := DefaultParams()
	loose.HG = 0.995 // almost everything is "different enough"
	strict := DefaultParams()
	strict.HG = 0.5 // only huge changes count
	many, _, err := Extract(c, loose)
	if err != nil {
		t.Fatal(err)
	}
	few, _, err := Extract(c, strict)
	if err != nil {
		t.Fatal(err)
	}
	if len(few) >= len(many) {
		t.Errorf("stricter HG should keep fewer key-frames: %d vs %d", len(few), len(many))
	}
}

func TestCompareSamePlaceVsDifferentPlace(t *testing.T) {
	b := world.Lab2()
	// Two users walking the same corridor stretch in the same direction,
	// plus one walking a distant stretch.
	c1 := testCapture(t, b, geom.P(3, 7.5), geom.P(18, 7.5), 31)
	c2 := testCapture(t, b, geom.P(4, 7.3), geom.P(18, 7.3), 32)
	p := DefaultParams()
	k1, _, err := Extract(c1, p)
	if err != nil {
		t.Fatal(err)
	}
	k2, _, err := Extract(c2, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(k1) < 3 || len(k2) < 3 {
		t.Fatalf("too few key-frames: %d/%d", len(k1), len(k2))
	}
	// Some same-place pair should match.
	matches := 0
	for _, ka := range k1 {
		for _, kb := range k2 {
			if ka.TruthPose.Pos.Dist(kb.TruthPose.Pos) > 2.0 {
				continue
			}
			if mathx.AngleDiff(ka.TruthPose.Heading, kb.TruthPose.Heading) > mathx.Deg2Rad(20) {
				continue
			}
			ok, _, err := Compare(ka, kb, p)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				matches++
			}
		}
	}
	if matches == 0 {
		t.Error("no same-place key-frame pair matched; aggregation would be impossible")
	}
}

func TestStage1GatesStage2(t *testing.T) {
	b := world.Lab2()
	c := testCapture(t, b, geom.P(3, 7.5), geom.P(30, 7.5), 33)
	p := DefaultParams()
	kfs, _, err := Extract(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(kfs) < 2 {
		t.Fatal("need at least 2 key-frames")
	}
	// With an impossible stage-1 threshold nothing can match, and S2 must
	// be 0 (stage 2 skipped).
	strict := p
	strict.HS = 0.999
	ok, s2, err := Compare(kfs[0], kfs[0], strict)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != 0 && !ok {
		t.Error("stage-2 score leaked through a stage-1 rejection")
	}
	// Identical frame with default params must match with S2 = 1.
	ok, s2, err = Compare(kfs[0], kfs[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || s2 != 1 {
		t.Errorf("self compare = (%v, %v), want (true, 1)", ok, s2)
	}
}

func TestStage1ScoreRange(t *testing.T) {
	b := world.Lab2()
	c := testCapture(t, b, geom.P(3, 7.5), geom.P(30, 7.5), 34)
	p := DefaultParams()
	kfs, _, err := Extract(c, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(kfs) && i < 4; i++ {
		for j := 0; j < len(kfs) && j < 4; j++ {
			s1, err := Stage1(kfs[i], kfs[j], p)
			if err != nil {
				t.Fatal(err)
			}
			if s1 < 0 || s1 > 1 {
				t.Fatalf("S1 = %v out of range", s1)
			}
			if i == j && s1 < 0.99 {
				t.Errorf("self S1 = %v, want ≈1", s1)
			}
		}
	}
}
