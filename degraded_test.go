package crowdmap

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"crowdmap/internal/img"
	"crowdmap/internal/quality"
)

// degradedCorpus builds a compact clean Lab2 corpus for the degraded-mode
// pinning tests. Generation is fully seeded.
func degradedCorpus(t *testing.T) ([]*Capture, Config) {
	t.Helper()
	b, err := BuildingByName("Lab2")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := GenerateDataset(b, DatasetSpec{
		Users:         3,
		CorridorWalks: 6,
		RoomVisits:    3,
		NightFraction: 0,
		Seed:          2025,
		FPS:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Layout.Hypotheses = 500
	cfg.Seed = 7
	return ds.Captures, cfg
}

// nanCapture clones a clean capture into one whose IMU stream is corrupt
// beyond the sanitization budget, which the quality gate must reject.
func nanCapture(src *Capture) *Capture {
	c := *src
	c.ID = "poison-nan-imu"
	c.IMU = append(c.IMU[:0:0], c.IMU...)
	for i := range c.IMU {
		if i%2 == 0 {
			c.IMU[i].GyroZ = math.NaN()
			c.IMU[i].Accel[1] = math.Inf(1)
		}
	}
	return &c
}

// panicCapture clones a clean capture into one whose frames lie about
// their dimensions: every pixel loop over W×H indexes past the channel
// slices and panics. The quality gate cannot see this (it does not read
// pixels); the keyframe stage's panic isolation must catch it.
func panicCapture(src *Capture) *Capture {
	c := *src
	c.ID = "poison-panic-frames"
	frames := append(c.Frames[:0:0], c.Frames...)
	for i := range frames {
		frames[i].Image = &img.RGB{
			W: 64, H: 48,
			R: make([]float64, 4), G: make([]float64, 4), B: make([]float64, 4),
		}
	}
	c.Frames = frames
	return &c
}

// TestDegradedModeGolden is the acceptance pin for failure isolation: a
// corpus seeded with poisoned captures (irrecoverable NaN IMU, panic-
// inducing frames) must reconstruct the surviving captures to the exact
// same floor plan as a clean-corpus run, with the exclusions reported on
// the result, the quality.rejected and pipeline.panic.recovered metrics
// incremented, and no goroutines leaked — the process never crashes.
func TestDegradedModeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end degraded-mode check is expensive")
	}
	clean, cfg := degradedCorpus(t)

	cleanRes, err := Reconstruct(clean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cleanRes.Coverage.Degraded || len(cleanRes.Excluded) != 0 {
		t.Fatalf("clean corpus reported degraded coverage: %+v", cleanRes.Coverage)
	}
	if cleanRes.Coverage.Input != len(clean) || cleanRes.Coverage.Used != len(clean) {
		t.Fatalf("clean coverage = %+v, want all %d used", cleanRes.Coverage, len(clean))
	}

	// Poison the corpus at both ends so exclusion-compaction, not index
	// luck, is what keeps the survivors aligned.
	poisoned := append([]*Capture{nanCapture(clean[0])}, clean...)
	poisoned = append(poisoned, panicCapture(clean[1]))

	reg := NewMetricsRegistry()
	pcfg := cfg
	pcfg.Metrics = reg

	before := runtime.NumGoroutine()
	degraded, err := Reconstruct(poisoned, pcfg)
	if err != nil {
		t.Fatalf("degraded run failed instead of completing on survivors: %v", err)
	}

	// The surviving subset must produce the clean corpus's exact plan.
	checkSameResult(t, "degraded vs clean", degraded, cleanRes)

	// Exclusions: both poison captures, each at the right stage.
	if len(degraded.Excluded) != 2 {
		t.Fatalf("excluded = %+v, want the 2 poisoned captures", degraded.Excluded)
	}
	byID := map[string]Exclusion{}
	for _, ex := range degraded.Excluded {
		byID[ex.CaptureID] = ex
	}
	nan, ok := byID["poison-nan-imu"]
	if !ok || nan.Stage != StageQualityGate {
		t.Fatalf("NaN capture exclusion = %+v, want stage %q", nan, StageQualityGate)
	}
	if !containsReason(nan.Reasons, quality.ReasonIMUCorrupt) {
		t.Errorf("NaN exclusion reasons %v missing %s", nan.Reasons, quality.ReasonIMUCorrupt)
	}
	pan, ok := byID["poison-panic-frames"]
	if !ok || pan.Stage != StageKeyframes {
		t.Fatalf("panic capture exclusion = %+v, want stage %q", pan, StageKeyframes)
	}
	if len(pan.Reasons) != 1 || !strings.Contains(pan.Reasons[0], "panic") {
		t.Errorf("panic exclusion reasons %v do not mention the panic", pan.Reasons)
	}

	// Coverage reflects the degraded run.
	want := Coverage{Input: len(poisoned), Used: len(clean), Excluded: 2, Degraded: true, Vision: len(clean)}
	if degraded.Coverage != want {
		t.Errorf("coverage = %+v, want %+v", degraded.Coverage, want)
	}
	// The plan's corpus identity is the survivors': the clean corpus.
	if cleanRes.Corpus != CorpusFingerprint(clean) {
		t.Errorf("clean Corpus = %.12s, want the input corpus %.12s", cleanRes.Corpus, CorpusFingerprint(clean))
	}
	if degraded.Corpus != cleanRes.Corpus {
		t.Errorf("degraded Corpus = %.12s, want the survivors' %.12s", degraded.Corpus, cleanRes.Corpus)
	}

	// Tracks stay input-indexed with nil holes at the exclusions.
	if len(degraded.Tracks) != len(poisoned) {
		t.Fatalf("tracks len = %d, want %d", len(degraded.Tracks), len(poisoned))
	}
	if degraded.Tracks[0] != nil || degraded.Tracks[len(poisoned)-1] != nil {
		t.Error("excluded captures should leave nil track holes")
	}
	for i := 1; i < len(poisoned)-1; i++ {
		if degraded.Tracks[i] == nil {
			t.Errorf("surviving capture %d has no track", i)
		}
	}

	// Metrics prove the gate and the panic isolation both fired.
	if got := reg.Counter("quality.rejected").Value(); got != 1 {
		t.Errorf("quality.rejected = %d, want 1", got)
	}
	if got := reg.Counter("pipeline.panic.recovered").Value(); got != 1 {
		t.Errorf("pipeline.panic.recovered = %d, want 1", got)
	}
	if got := reg.Counter("reconstruct.excluded").Value(); got != 2 {
		t.Errorf("reconstruct.excluded = %d, want 2", got)
	}

	// No goroutines may leak past the degraded run.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines grew from %d to %d after degraded run", before, now)
	}
}

// TestQualityGateDisabled pins the opt-out: with Config.Quality nil the
// pipeline trusts its input exactly as before, so an irrecoverable
// capture surfaces as a keyframe-stage exclusion (or reconstructs) rather
// than a gate rejection.
func TestQualityGateDisabled(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end run is expensive")
	}
	clean, cfg := degradedCorpus(t)
	cfg.Quality = nil
	poisoned := append([]*Capture{}, clean...)
	poisoned = append(poisoned, panicCapture(clean[0]))
	res, err := Reconstruct(poisoned, cfg)
	if err != nil {
		t.Fatalf("ungated degraded run failed: %v", err)
	}
	for _, ex := range res.Excluded {
		if ex.Stage == StageQualityGate {
			t.Fatalf("gate disabled but exclusion %+v names the quality stage", ex)
		}
	}
	if len(res.Excluded) != 1 {
		t.Fatalf("excluded = %+v, want just the panic capture", res.Excluded)
	}
}

// TestReconstructAllExcluded pins the zero-survivor contract: the run
// must fail with a descriptive error, not produce an empty plan.
func TestReconstructAllExcluded(t *testing.T) {
	clean, cfg := degradedCorpus(t)
	bad := make([]*Capture, 3)
	for i := range bad {
		c := nanCapture(clean[i])
		c.ID = fmt.Sprintf("poison-%d", i)
		bad[i] = c
	}
	_, err := Reconstruct(bad, cfg)
	if err == nil || !strings.Contains(err.Error(), "quality gate excluded all") {
		t.Fatalf("all-excluded corpus returned %v, want gate-exclusion error", err)
	}
}

func containsReason(reasons []string, code string) bool {
	for _, r := range reasons {
		if r == code {
			return true
		}
	}
	return false
}
