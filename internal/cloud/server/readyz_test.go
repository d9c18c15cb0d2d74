package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/obs"
)

// TestReadyzLifecycle pins the readiness contract: a server built with
// WithNotReady answers /readyz 503 until MarkReady, 200 after, and 503
// again once shutdown drain begins — while /healthz stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	srv, err := New(store.New(), WithNotReady())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	status := func(path string) int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before MarkReady = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before MarkReady = %d, want 200", got)
	}
	if srv.Ready() {
		t.Fatal("Ready() true before MarkReady")
	}
	srv.MarkReady()
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after MarkReady = %d, want 200", got)
	}
	if !srv.Ready() {
		t.Fatal("Ready() false after MarkReady")
	}
	srv.StartDrain()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", got)
	}
}

// TestReadyzDefaultReady: without WithNotReady (library and test use) the
// server is ready from construction.
func TestReadyzDefaultReady(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
}

// TestPlanRoundTripAndCorruption: a published plan's record is stored
// under an integrity envelope; a record corrupted at rest is quarantined
// by a restarted read tier and answered 404, never served.
func TestPlanRoundTripAndCorruption(t *testing.T) {
	st := store.New()
	res, _ := serveResult(t, testCapture(t), nil)
	svg, err := res.Plan.RenderSVG()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mapserve.New(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Publish(serveBuilding, res); err != nil {
		t.Fatal(err)
	}
	// get serves plan.svg from a freshly started read tier over st.
	get := func(reg *obs.Registry) (int, []byte) {
		t.Helper()
		ms, err := mapserve.New(st, mapserve.WithObs(reg))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(st, WithObs(reg), WithMapServe(ms))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp := getPlan(t, ts, "/api/v1/buildings/"+serveBuilding+"/plan.svg", "")
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.Bytes()
	}
	if code, body := get(obs.New()); code != http.StatusOK || !bytes.Equal(body, svg) {
		t.Fatalf("get plan = %d, %d bytes", code, len(body))
	}

	// Rot the stored record; the envelope catches it.
	key := serveBuilding + "/plan"
	raw, ok := st.Get(mapserve.CollServe, key)
	if !ok {
		t.Fatal("plan record missing from store")
	}
	mut := append([]byte(nil), raw...)
	mut[len(mut)-1] ^= 0x01
	if err := st.Put(mapserve.CollServe, key, mut); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	if code, body := get(reg); code != http.StatusNotFound || bytes.Contains(body, []byte("<svg")) {
		t.Fatalf("corrupt plan served: %d %q", code, body)
	}
	c := reg.Snapshot().Counters
	if c["mapserve.plan.corrupt"] != 1 || c["integrity.quarantined"] != 1 {
		t.Fatalf("corruption counters = %v", c)
	}
	if _, ok := st.Get(integrity.QuarantineColl, mapserve.CollServe+"/"+key); !ok {
		t.Fatal("corrupt plan not quarantined")
	}
}
