package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"crowdmap/internal/cloud/store"
	"crowdmap/internal/crowd"
	"crowdmap/internal/geom"
	"crowdmap/internal/mathx"
	"crowdmap/internal/world"
)

func testCapture(t *testing.T) *crowd.Capture {
	t.Helper()
	users, err := crowd.NewPopulation(1, 0, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := crowd.NewGenerator(world.Lab2())
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.SWS("wire-test", users[0], geom.P(3, 7.5), geom.P(14, 7.5), mathx.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := testCapture(t)
	data, err := EncodeCapture(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCapture(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != c.ID || got.UserID != c.UserID || got.Kind != c.Kind {
		t.Error("metadata lost in round trip")
	}
	if got.StepLengthEst != c.StepLengthEst {
		t.Error("step length estimate lost")
	}
	if len(got.Frames) != len(c.Frames) {
		t.Fatalf("frames %d != %d", len(got.Frames), len(c.Frames))
	}
	if len(got.IMU) != len(c.IMU) {
		t.Fatalf("IMU %d != %d", len(got.IMU), len(c.IMU))
	}
	// Frame pixels survive 8-bit quantization within 1/255 per channel.
	f0, g0 := c.Frames[0].Image, got.Frames[0].Image
	if f0.W != g0.W || f0.H != g0.H {
		t.Fatal("frame size changed")
	}
	var worst float64
	for i := range f0.R {
		worst = math.Max(worst, math.Abs(f0.R[i]-g0.R[i]))
		worst = math.Max(worst, math.Abs(f0.G[i]-g0.G[i]))
		worst = math.Max(worst, math.Abs(f0.B[i]-g0.B[i]))
	}
	if worst > 1.0/255+1e-9 {
		t.Errorf("pixel error %v exceeds 8-bit quantization", worst)
	}
	// Truth profile survives for evaluation.
	if len(got.Truth) != len(c.Truth) {
		t.Errorf("truth %d != %d", len(got.Truth), len(c.Truth))
	}
	if got.Frames[0].TruthPose.Pos.Dist(c.Frames[0].TruthPose.Pos) > 1e-6 {
		t.Error("frame truth pose not reattached")
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := EncodeCapture(nil); err == nil {
		t.Error("nil capture should error")
	}
	if _, err := EncodeCapture(&crowd.Capture{ID: "empty"}); err == nil {
		t.Error("frameless capture should error")
	}
	if _, err := DecodeCapture([]byte("not a zip")); err == nil {
		t.Error("garbage archive should error")
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(store.New())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestServerValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil store should error")
	}
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t)
	c := testCapture(t)
	archive, err := EncodeCapture(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := UploadCapture(ts.Client(), ts.URL, c.ID, archive); err != nil {
		t.Fatal(err)
	}
	if srv.Store().Len(CollCaptures) != 1 {
		t.Fatal("capture not stored")
	}
	// List endpoint.
	resp, err := ts.Client().Get(ts.URL + "/api/v1/captures")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []string
	if err := json.NewDecoder(resp.Body).Decode(&ids); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != c.ID {
		t.Errorf("listed %v", ids)
	}
	// Download and decode.
	resp2, err := ts.Client().Get(ts.URL + "/api/v1/captures/" + c.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCapture(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != c.ID {
		t.Error("downloaded capture mismatch")
	}
}

func TestChunkedUploadSmallChunks(t *testing.T) {
	// Force multiple chunks by uploading with a tiny manual chunk size.
	srv, ts := newTestServer(t)
	c := testCapture(t)
	archive, err := EncodeCapture(c)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 64 << 10
	total := (len(archive) + chunk - 1) / chunk
	if total < 2 {
		t.Fatalf("archive too small (%d bytes) to test chunking", len(archive))
	}
	for i := 0; i < total; i++ {
		lo, hi := i*chunk, (i+1)*chunk
		if hi > len(archive) {
			hi = len(archive)
		}
		url := ts.URL + "/api/v1/captures/" + c.ID + "/chunks?index=" +
			itoa(i) + "&total=" + itoa(total)
		resp, err := ts.Client().Post(url, "application/octet-stream", bytes.NewReader(archive[lo:hi]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		wantStatus := http.StatusAccepted
		if i == total-1 {
			wantStatus = http.StatusCreated
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("chunk %d: status %d, want %d", i, resp.StatusCode, wantStatus)
		}
	}
	if srv.Store().Len(CollCaptures) != 1 {
		t.Error("assembled capture not stored")
	}
}

func TestUploadRejectsGarbage(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/api/v1/captures/bad/chunks?index=0&total=1"
	resp, err := ts.Client().Post(url, "application/octet-stream", strings.NewReader("garbage"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("garbage upload status = %d", resp.StatusCode)
	}
}

func TestChunkParameterValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, q := range []string{"index=-1&total=1", "index=0&total=0", "index=2&total=2", "index=x&total=1"} {
		resp, err := ts.Client().Post(ts.URL+"/api/v1/captures/x/chunks?"+q, "application/octet-stream", strings.NewReader("d"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestPlanStorage: the read tier is the one plan store. GET plan.svg
// serves floorplan.Plan.RenderSVG of the published result under the
// version's ETag, answers a matching If-None-Match with 304, and 404s a
// building with no plan; no route lets a client write a plan.
func TestPlanStorage(t *testing.T) {
	_, ts, c, _ := newMapServer(t)
	res, _ := serveResult(t, c, nil)
	want, err := res.Plan.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	path := "/api/v1/buildings/" + serveBuilding + "/plan.svg"
	resp := getPlan(t, ts, path, "")
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body.Bytes(), want) {
		t.Fatalf("plan.svg = %d, %d bytes; want 200 and the plan's %d-byte RenderSVG", resp.StatusCode, body.Len(), len(want))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("Content-Type = %q", ct)
	}
	etag := resp.Header.Get("ETag")
	png := getPlan(t, ts, "/api/v1/buildings/"+serveBuilding+"/plan.png", "")
	png.Body.Close()
	if png.Header.Get("ETag") != etag || etag == "" {
		t.Errorf("plan.svg ETag %q, plan.png ETag %q: want the version's one ETag", etag, png.Header.Get("ETag"))
	}
	notMod := getPlan(t, ts, path, etag)
	notMod.Body.Close()
	if notMod.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match %s: status %d, want 304", etag, notMod.StatusCode)
	}
	missing := getPlan(t, ts, "/api/v1/buildings/Gym/plan.svg", "")
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("missing plan status = %d, want 404", missing.StatusCode)
	}
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/api/v1/plans/"+serveBuilding, strings.NewReader("<svg/>"))
	if err != nil {
		t.Fatal(err)
	}
	put, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	put.Body.Close()
	if put.StatusCode != http.StatusNotFound {
		t.Errorf("PUT /api/v1/plans/%s = %d, want 404 (no client-writable plan route)", serveBuilding, put.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func itoa(i int) string {
	return string(appendInt(nil, i))
}

func appendInt(b []byte, i int) []byte {
	if i < 0 {
		b = append(b, '-')
		i = -i
	}
	if i >= 10 {
		b = appendInt(b, i/10)
	}
	return append(b, byte('0'+i%10))
}
