package crowdmap

import (
	"math"
	"testing"

	"crowdmap/internal/quality"
)

// modeCorpus generates a compact seeded Lab2 corpus for the mode tests.
func modeCorpus(t *testing.T) ([]*Capture, Config) {
	t.Helper()
	b, err := BuildingByName("Lab2")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(b, DatasetSpec{
		Users:         3,
		CorridorWalks: 6,
		RoomVisits:    2,
		NightFraction: 0,
		Seed:          909,
		FPS:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Layout.Hypotheses = 400
	cfg.Seed = 7
	cfg.Workers = 4
	return ds.Captures, cfg
}

// imuOnly clones a corpus into captures carrying no video at all — the
// upload shape of a camera-less contributor.
func imuOnly(caps []*Capture) []*Capture {
	out := make([]*Capture, len(caps))
	for i, src := range caps {
		c := *src
		c.Frames = nil
		c.FPS = 0
		out[i] = &c
	}
	return out
}

// badVideoCapture clones a capture into one whose declared frame rate is
// absurd: the full quality gate must reject it while its untouched IMU
// stream passes the inertial verdict.
func badVideoCapture(src *Capture, id string) *Capture {
	c := *src
	c.ID = id
	c.FPS = 100000
	return &c
}

// TestTrajectoryOnlyReconstruct is the acceptance pin for the tentpole's
// first half: an IMU-only corpus — zero video frames anywhere — must
// reconstruct to a non-empty floor plan through the existing occupancy/
// α-shape stages, with every used capture reported as trajectory-routed.
func TestTrajectoryOnlyReconstruct(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end trajectory-mode check is expensive")
	}
	caps, cfg := modeCorpus(t)
	caps = imuOnly(caps)
	cfg.Mode = ModeTrajectory
	reg := NewMetricsRegistry()
	cfg.Metrics = reg

	res, err := Reconstruct(caps, cfg)
	if err != nil {
		t.Fatalf("trajectory-only reconstruction failed: %v", err)
	}
	if res.Plan == nil || res.Plan.HallwayMask == nil || res.Plan.HallwayMask.Count() == 0 {
		t.Fatal("trajectory-only plan has an empty hallway mask")
	}
	if res.Plan.HallwayShape == nil || res.Plan.HallwayShape.Area() <= 0 {
		t.Error("trajectory-only plan has no hallway shape")
	}
	if len(res.Plan.Trajectories) == 0 {
		t.Error("trajectory-only plan placed no trajectories")
	}
	want := Coverage{
		Input: len(caps), Used: len(caps),
		Vision: 0, TrajectoryOnly: len(caps),
	}
	if res.Coverage != want {
		t.Errorf("coverage = %+v, want %+v", res.Coverage, want)
	}
	// No video anywhere: no key-frames, no rooms.
	for i, tr := range res.Tracks {
		if tr == nil {
			t.Fatalf("capture %d excluded: %+v", i, res.Excluded)
		}
		if len(tr.KFs) != 0 {
			t.Errorf("track %s has %d key-frames in trajectory mode", tr.ID, len(tr.KFs))
		}
	}
	if len(res.RoomObservations) != 0 || len(res.Plan.Rooms) != 0 {
		t.Errorf("trajectory mode reconstructed rooms: %d observations, %d placed",
			len(res.RoomObservations), len(res.Plan.Rooms))
	}
	c := reg.Snapshot().Counters
	if c["reconstruct.mode.trajectory"] != 1 {
		t.Errorf("reconstruct.mode.trajectory = %d, want 1", c["reconstruct.mode.trajectory"])
	}
	if c["reconstruct.mode.routed.trajectory"] != int64(len(caps)) {
		t.Errorf("reconstruct.mode.routed.trajectory = %d, want %d",
			c["reconstruct.mode.routed.trajectory"], len(caps))
	}
	// Every used track must end up placed (turn matching or GPS fallback),
	// so every dead-reckoned walk contributes occupancy density.
	if len(res.Aggregation.Offsets) != len(caps) {
		t.Errorf("placed %d of %d trajectory tracks", len(res.Aggregation.Offsets), len(caps))
	}
}

// TestTrajectoryModeDeterministic extends the pipeline's determinism
// contract to the new route: bit-identical results across worker counts.
func TestTrajectoryModeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end determinism check is expensive")
	}
	caps, cfg := modeCorpus(t)
	caps = imuOnly(caps)[:6]
	cfg.Mode = ModeTrajectory
	var ref *Result
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		res, err := Reconstruct(caps, c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		checkSameResult(t, "trajectory mode across worker counts", res, ref)
	}
}

// TestHybridRescuesGateRejectedVideo is the acceptance pin for the
// tentpole's second half: a corpus seeded with a gate-rejected-video
// capture must, in hybrid mode, fold that capture's dead-reckoned
// trajectory into the plan — strictly higher Coverage than the mode-off
// (vision) run, which drops the capture outright.
func TestHybridRescuesGateRejectedVideo(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end hybrid check is expensive")
	}
	clean, cfg := modeCorpus(t)
	corpus := append([]*Capture{badVideoCapture(clean[0], "bad-video")}, clean...)

	vres, err := Reconstruct(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(vres.Excluded) != 1 || vres.Excluded[0].CaptureID != "bad-video" ||
		vres.Excluded[0].Stage != StageQualityGate {
		t.Fatalf("vision mode exclusions = %+v, want just bad-video at the gate", vres.Excluded)
	}

	hcfg := cfg
	hcfg.Mode = ModeHybrid
	reg := NewMetricsRegistry()
	hcfg.Metrics = reg
	hres, err := Reconstruct(corpus, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hres.Excluded) != 0 {
		t.Fatalf("hybrid mode excluded %+v, want the bad-video capture rescued", hres.Excluded)
	}
	if hres.Coverage.Used <= vres.Coverage.Used {
		t.Errorf("hybrid Used = %d, want strictly above vision's %d",
			hres.Coverage.Used, vres.Coverage.Used)
	}
	want := Coverage{
		Input: len(corpus), Used: len(corpus),
		Vision: len(clean), TrajectoryOnly: 1,
	}
	if hres.Coverage != want {
		t.Errorf("hybrid coverage = %+v, want %+v", hres.Coverage, want)
	}
	// The rescued capture's track is trajectory-only (no key-frames), and
	// it is placed — its walk contributes density to the shared grid.
	resc := hres.Tracks[0]
	if resc == nil || resc.ID != "bad-video" {
		t.Fatalf("rescued track missing at input index 0: %+v", resc)
	}
	if len(resc.KFs) != 0 {
		t.Errorf("rescued track carries %d key-frames, want 0", len(resc.KFs))
	}
	if _, placed := hres.Aggregation.Offsets[0]; !placed {
		t.Error("rescued trajectory track was not placed into the global frame")
	}
	if len(hres.Plan.Trajectories) <= len(vres.Plan.Trajectories) {
		t.Errorf("hybrid placed %d trajectories, vision %d — rescue added none",
			len(hres.Plan.Trajectories), len(vres.Plan.Trajectories))
	}
	c := reg.Snapshot().Counters
	if c["reconstruct.mode.rescued"] != 1 {
		t.Errorf("reconstruct.mode.rescued = %d, want 1", c["reconstruct.mode.rescued"])
	}
}

// TestHybridMergesRejectionReasons pins the both-modalities-bad contract:
// when the video verdict AND the inertial verdict reject a capture, the
// exclusion carries the union of both reason sets.
func TestHybridMergesRejectionReasons(t *testing.T) {
	caps, cfg := modeCorpus(t)
	c := *caps[0]
	c.ID = "all-bad"
	c.FPS = 100000 // video: implausible frame rate
	c.IMU = append(c.IMU[:0:0], c.IMU...)
	for i := range c.IMU {
		c.IMU[i].GyroZ = math.NaN() // inertial: corrupt beyond repair
	}
	cfg.Mode = ModeHybrid
	_, err := Reconstruct([]*Capture{&c}, cfg)
	if err == nil {
		t.Fatal("single all-bad capture reconstructed")
	}
	qp := *cfg.Quality
	_, rep := quality.Gate(&c, qp)
	_, irep := quality.GateIMU(&c, qp)
	merged := mergeReasons(rep.Reasons, irep.Reasons)
	if !containsReason(merged, quality.ReasonFPS) || !containsReason(merged, quality.ReasonIMUCorrupt) {
		t.Fatalf("merged reasons %v miss a modality verdict", merged)
	}
	// The same union must surface on a run that survives on other captures.
	corpus := []*Capture{&c, caps[1], caps[2], caps[3]}
	res, err := Reconstruct(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0].CaptureID != "all-bad" {
		t.Fatalf("exclusions = %+v, want just all-bad", res.Excluded)
	}
	got := res.Excluded[0].Reasons
	if len(got) != len(merged) {
		t.Fatalf("exclusion reasons = %v, want merged %v", got, merged)
	}
	for i := range got {
		if got[i] != merged[i] {
			t.Fatalf("exclusion reasons = %v, want merged %v", got, merged)
		}
	}
}

// TestParseMode pins the flag vocabulary round-trip and Validate's mode
// check.
func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeVision, ModeTrajectory, ModeHybrid} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("sonar"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
	cfg := DefaultConfig()
	cfg.Mode = Mode(99)
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted an unknown mode")
	}
}

// TestResultCorpusIsTheInputSurvivors pins Result.Corpus: the corpus
// fingerprint of the caller's captures minus the excluded ones, taken
// from the inputs as passed (not the gate's sanitized copies) and before
// ReleaseFrames drops their pixels.
func TestResultCorpusIsTheInputSurvivors(t *testing.T) {
	caps, cfg := modeCorpus(t)
	caps = caps[:4]
	cfg.Mode = ModeTrajectory
	cfg.ReleaseFrames = true
	// One sample within the sanitization budget: the gate repairs a copy.
	sanitized := *caps[1]
	sanitized.ID = "sanitized-imu"
	sanitized.IMU = append(sanitized.IMU[:0:0], sanitized.IMU...)
	sanitized.IMU[len(sanitized.IMU)/2].GyroZ = math.NaN()
	input := append([]*Capture{nanCapture(caps[0]), &sanitized}, caps...)
	want := CorpusFingerprint(input[1:])
	inputFP := sanitized.Fingerprint()

	res, err := Reconstruct(input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0].CaptureID != input[0].ID {
		t.Fatalf("excluded = %+v, want only %s", res.Excluded, input[0].ID)
	}
	if res.Tracks[1] == nil || res.Tracks[1].Hash == inputFP {
		t.Fatal("the gate did not sanitize a copy of the repairable capture")
	}
	if input[2].Frames != nil {
		t.Fatal("ReleaseFrames kept the input frames")
	}
	if res.Corpus != want {
		t.Errorf("Corpus = %.12s, want the input survivors' %.12s", res.Corpus, want)
	}
}
