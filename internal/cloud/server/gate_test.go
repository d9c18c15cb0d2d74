package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"crowdmap/internal/cloud/store"
	"crowdmap/internal/crowd"
	"crowdmap/internal/quality"
)

// recordingLog is a ChunkLog fake that remembers rejection records.
type recordingLog struct {
	mu       sync.Mutex
	rejected map[string]string
}

func (l *recordingLog) LogChunk(string, int, int, []byte) error { return nil }
func (l *recordingLog) LogUploadDone(string) error              { return nil }
func (l *recordingLog) LogUploadEvicted(string) error           { return nil }
func (l *recordingLog) LogUploadRejected(id, reason string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rejected == nil {
		l.rejected = make(map[string]string)
	}
	l.rejected[id] = reason
	return nil
}

// uploadArchive pushes a full archive through the chunk protocol and
// returns the final chunk's status code and response body.
func uploadArchive(t *testing.T, ts *httptest.Server, id string, archive []byte) (int, []byte) {
	t.Helper()
	chunks := chunksOf(archive, chunkCount(archive))
	var status int
	var body []byte
	for i, ch := range chunks {
		url := ts.URL + "/api/v1/captures/" + id + "/chunks?index=" + itoa(i) + "&total=" + itoa(len(chunks))
		resp, err := ts.Client().Post(url, "application/octet-stream", bytes.NewReader(ch))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		status, body = resp.StatusCode, buf.Bytes()
	}
	return status, body
}

// TestUploadQualityGateRejects: a capture that decodes fine but fails the
// quality gate (here: a sub-second recording, far under the minimum useful
// duration) is refused with 422 and machine-readable reason codes, the
// rejection is WAL-logged, the archive is not stored, and the daemon keeps
// serving — the next good upload lands normally.
func TestUploadQualityGateRejects(t *testing.T) {
	wal := &recordingLog{}
	srv, err := New(store.New(),
		WithQualityGate(quality.DefaultParams()),
		WithChunkLog(wal))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// fuzzSeedArchive's capture spans 0.5 s — structurally valid, too
	// short to be useful signal.
	status, body := uploadArchive(t, ts, "too-short", fuzzSeedArchive(t))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("gated upload: status %d, want 422 (body %s)", status, body)
	}
	var resp struct {
		Error   string   `json:"error"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("422 body is not the reason document: %v (%s)", err, body)
	}
	if !containsString(resp.Reasons, quality.ReasonDuration) {
		t.Errorf("reasons %v missing %s", resp.Reasons, quality.ReasonDuration)
	}
	if _, stored := srv.Store().Get(CollCaptures, "too-short"); stored {
		t.Error("rejected capture was stored anyway")
	}
	if got := srv.Metrics().Counter("quality.rejected").Value(); got != 1 {
		t.Errorf("quality.rejected = %d, want 1", got)
	}
	wal.mu.Lock()
	reason, logged := wal.rejected["too-short"]
	wal.mu.Unlock()
	if !logged || !strings.Contains(reason, quality.ReasonDuration) {
		t.Errorf("rejection not WAL-logged with reasons: %q (logged=%v)", reason, logged)
	}

	// The daemon is unharmed: a generator-quality capture sails through.
	good := testCapture(t)
	archive, err := EncodeCapture(good)
	if err != nil {
		t.Fatal(err)
	}
	status, body = uploadArchive(t, ts, good.ID, archive)
	if status != http.StatusCreated {
		t.Fatalf("good upload after rejection: status %d (body %s)", status, body)
	}
	if got := srv.Metrics().Counter("quality.admitted").Value(); got != 1 {
		t.Errorf("quality.admitted = %d, want 1", got)
	}
}

// TestUploadZipBombRejected413: an archive over the decompression caps is
// refused with 413 (not 422 — the client should not retry with the same
// payload expecting a different parse), the typed rejection is counted and
// WAL-logged, and nothing reaches the store.
func TestUploadZipBombRejected413(t *testing.T) {
	wal := &recordingLog{}
	srv, err := New(store.New(), WithChunkLog(wal))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	bomb := zerosArchive(t, map[string]int64{"imu.json": MaxFileUncompressed + 1})
	status, body := uploadArchive(t, ts, "bomb", bomb)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("zip bomb: status %d, want 413 (body %s)", status, body)
	}
	if _, stored := srv.Store().Get(CollCaptures, "bomb"); stored {
		t.Error("zip bomb was stored")
	}
	if got := srv.Metrics().Counter("uploads.rejected_toolarge").Value(); got != 1 {
		t.Errorf("uploads.rejected_toolarge = %d, want 1", got)
	}
	wal.mu.Lock()
	_, logged := wal.rejected["bomb"]
	wal.mu.Unlock()
	if !logged {
		t.Error("zip-bomb rejection not WAL-logged")
	}
}

// TestUploadIMUOnlyAdmission pins the trajectory-mode front door: a
// frame-less IMU-only archive round-trips the wire format and, while the
// default gate refuses it (no frames), WithIMUOnlyAdmission admits it on
// the inertial verdict alone and stores it for the pipeline.
func TestUploadIMUOnlyAdmission(t *testing.T) {
	src := testCapture(t)
	imu := *src
	imu.ID = "imu-only"
	imu.Frames = nil
	imu.FPS = 0
	archive, err := EncodeCapture(&imu)
	if err != nil {
		t.Fatalf("encode IMU-only capture: %v", err)
	}
	decoded, err := DecodeCapture(archive)
	if err != nil {
		t.Fatalf("decode IMU-only capture: %v", err)
	}
	if len(decoded.Frames) != 0 || len(decoded.IMU) != len(imu.IMU) {
		t.Fatalf("round trip: %d frames, %d/%d IMU samples",
			len(decoded.Frames), len(decoded.IMU), len(imu.IMU))
	}

	// Default gate: refused (video checks fail on a frame-less capture).
	strict, err := New(store.New(), WithQualityGate(quality.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(strict.Handler())
	t.Cleanup(ts.Close)
	status, body := uploadArchive(t, ts, imu.ID, archive)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("vision-gated IMU-only upload: status %d, want 422 (body %s)", status, body)
	}

	// Trajectory-capable gate: admitted and stored.
	relaxed, err := New(store.New(),
		WithQualityGate(quality.DefaultParams()),
		WithIMUOnlyAdmission())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(relaxed.Handler())
	t.Cleanup(ts2.Close)
	status, body = uploadArchive(t, ts2, imu.ID, archive)
	if status != http.StatusCreated {
		t.Fatalf("IMU-only admission: status %d, want 201 (body %s)", status, body)
	}
	if _, stored := relaxed.Store().Get(CollCaptures, imu.ID); !stored {
		t.Error("admitted IMU-only capture was not stored")
	}
	if got := relaxed.Metrics().Counter("uploads.admitted_imu_only").Value(); got != 1 {
		t.Errorf("uploads.admitted_imu_only = %d, want 1", got)
	}
	// The relaxation is per-modality, not a bypass: a capture whose IMU is
	// also bad stays rejected.
	junk := imu
	junk.ID = "imu-bad"
	junk.IMU = nil
	badArchive, err := EncodeCapture(&crowd.Capture{
		ID: junk.ID, UserID: junk.UserID, StepLengthEst: -1,
		IMU: imu.IMU, Geo: imu.Geo,
	})
	if err == nil {
		if status, _ = uploadArchive(t, ts2, junk.ID, badArchive); status == http.StatusCreated {
			t.Error("IMU-only admission accepted a capture with a bad inertial verdict")
		}
	}
}

func containsString(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestOnStoredFiresOncePerStoredUpload: the commit hook sees each stored
// upload exactly once, after its last chunk and with the bytes and the
// capture the server stored, and never sees an upload refused with 413
// or 422.
func TestOnStoredFiresOncePerStoredUpload(t *testing.T) {
	type call struct {
		id, captureID string
		raw           []byte
	}
	var mu sync.Mutex
	var calls []call
	srv, err := New(store.New(),
		WithQualityGate(quality.DefaultParams()),
		WithOnStored(func(id string, raw []byte, c *crowd.Capture) {
			mu.Lock()
			defer mu.Unlock()
			calls = append(calls, call{id, c.ID, raw})
		}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for id, archive := range map[string][]byte{
		"too-short": fuzzSeedArchive(t),                                                     // 422: quality gate
		"garbage":   []byte("PK\x03\x04 not a capture"),                                     // 422: undecodable
		"bomb":      zerosArchive(t, map[string]int64{"imu.json": MaxFileUncompressed + 1}), // 413
	} {
		if status, _ := uploadArchive(t, ts, id, archive); status != http.StatusUnprocessableEntity && status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413 or 422", id, status)
		}
	}
	good := testCapture(t)
	archive, err := EncodeCapture(good)
	if err != nil {
		t.Fatal(err)
	}
	half := len(archive) / 2
	if got := postChunk(t, ts, "upload-key", 1, 2, archive[half:]); got != http.StatusAccepted {
		t.Fatalf("first chunk: status %d, want 202", got)
	}
	if got := postChunk(t, ts, "upload-key", 0, 2, archive[:half]); got != http.StatusCreated {
		t.Fatalf("last chunk: status %d, want 201", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 {
		t.Fatalf("hook fired %d times, want once: %+v", len(calls), calls)
	}
	if c := calls[0]; c.id != "upload-key" || c.captureID != good.ID || !bytes.Equal(c.raw, archive) {
		t.Errorf("hook saw id %q, capture %q, %d bytes; want %q, %q, the %d stored bytes",
			c.id, c.captureID, len(c.raw), "upload-key", good.ID, len(archive))
	}
}
