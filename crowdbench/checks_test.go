package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"crowdmap"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/obs"
)

// TestScorePlanJSONMatchesEvaluate scores the vector plan the read tier
// serves for a library reconstruction and compares it with
// crowdmap.Evaluate on the same reconstruction.
func TestScorePlanJSONMatchesEvaluate(t *testing.T) {
	if testing.Short() {
		t.Skip("reconstructs a corpus")
	}
	b, err := crowdmap.BuildingByName("Lab1")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := crowdmap.GenerateDataset(b, crowdmap.DatasetSpec{
		Users: 6, CorridorWalks: 12, RoomVisits: 6, Seed: 424242, FPS: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := crowdmap.DefaultConfig()
	cfg.Layout.Hypotheses = 4000
	cfg.Seed = 7
	res, err := crowdmap.Reconstruct(ds.Captures, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := crowdmap.Evaluate(res, b)
	if err != nil {
		t.Fatal(err)
	}
	if want.RoomsReconstructed == 0 {
		t.Fatal("fixture reconstructs no rooms; room-area scoring would go untested")
	}
	ms, err := mapserve.New(store.New())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Publish(b.Name, res); err != nil {
		t.Fatal(err)
	}
	view, ok := ms.Plan(b.Name)
	if !ok {
		t.Fatal("published plan not served")
	}
	got, err := scorePlanJSON(view.JSON, b)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	if math.Abs(got.Hallway.Precision-want.Hallway.Precision) > tol ||
		math.Abs(got.Hallway.Recall-want.Hallway.Recall) > tol ||
		math.Abs(got.Hallway.F-want.Hallway.F) > tol {
		t.Errorf("hallway: served JSON scores %v, Evaluate %v", got.Hallway, want.Hallway)
	}
	if got.Offset.Dist(want.AlignOffset) > tol {
		t.Errorf("offset: served JSON %v, Evaluate %v", got.Offset, want.AlignOffset)
	}
	if got.Rooms != want.RoomsReconstructed || math.Abs(got.AreaErr-want.MeanAreaError) > tol {
		t.Errorf("rooms: served JSON %d rooms, area err %v; Evaluate %d, %v",
			got.Rooms, got.AreaErr, want.RoomsReconstructed, want.MeanAreaError)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {39, 0}, {40, 75}, {60, 83}, {72, 86}, {100, 90},
		{200, 95}, {500, 98}, {999, 98}, {1000, 99}, {1500, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	// The definition itself: at least 10 samples beyond the chosen
	// percentile, fewer than 10 beyond the next one up.
	beyond := func(n, p int) int { return n - int(math.Ceil(float64(p*n)/100)) }
	for n := 40; n <= 3000; n++ {
		p := tailPercentile(n)
		if beyond(n, p) < 10 || (p < 99 && beyond(n, p+1) >= 10) {
			t.Fatalf("n=%d: p%d leaves %d beyond, p%d leaves %d", n, p, beyond(n, p), p+1, beyond(n, p+1))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, v := tail(xs); p != 90 || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("tail(1..100) = p%d %v, want p90 90.1", p, v)
	}
}

// fakeMetrics serves a scripted sequence of /metrics snapshots, one per
// request, repeating the last.
func fakeMetrics(t *testing.T, seq []obs.Snapshot) *daemon {
	var mu sync.Mutex
	i := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		s := seq[min(i, len(seq)-1)]
		i++
		mu.Unlock()
		_ = json.NewEncoder(w).Encode(s)
	}))
	t.Cleanup(ts.Close)
	return &daemon{base: ts.URL, hc: ts.Client()}
}

func snap(enqueued, publishes, unchanged int64) obs.Snapshot {
	return obs.Snapshot{Counters: map[string]int64{
		"sched.jobs.enqueued":        enqueued,
		"mapserve.publishes":         publishes,
		"mapserve.publish.unchanged": unchanged,
	}}
}

func TestServedDetection(t *testing.T) {
	for _, tc := range []struct {
		name string
		seq  []obs.Snapshot
		// served is the index of the snapshot at which the upload counts
		// as served.
		served int
	}{
		{
			name:   "version bump",
			seq:    []obs.Snapshot{snap(4, 2, 0), snap(5, 2, 0), snap(5, 2, 0), snap(5, 3, 0)},
			served: 3,
		},
		{
			// Publish of identical content keeps the version and ETag and
			// only counts mapserve.publish.unchanged.
			name:   "unchanged publish",
			seq:    []obs.Snapshot{snap(4, 2, 0), snap(5, 2, 0), snap(5, 2, 1)},
			served: 2,
		},
		{
			// A publish that lands before any job enqueued after the upload
			// started comes from an older corpus.
			name:   "older job's publish ignored",
			seq:    []obs.Snapshot{snap(4, 3, 0), snap(5, 3, 0), snap(5, 3, 0), snap(5, 3, 1)},
			served: 3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := fakeMetrics(t, tc.seq)
			r := &run{d: d}
			ev := &event{c: capture{ID: "c"}, before: snap(4, 2, 0)}
			calls := 0
			d.hc.Transport = countingTransport{d.hc.Transport, &calls}
			if err := r.waitServed(ev, 0); err != nil {
				t.Fatal(err)
			}
			if calls != tc.served+1 {
				t.Errorf("served after %d polls, want %d", calls, tc.served+1)
			}
			if ev.started.IsZero() || ev.servedT.Before(ev.started) {
				t.Errorf("started %v, served %v", ev.started, ev.servedT)
			}
		})
	}
	if servedSince(2, snap(9, 2, 0)) {
		t.Error("no publish since, yet served")
	}
	if !servedSince(2, snap(9, 2, 1)) {
		t.Error("unchanged publish not treated as served")
	}
}

type countingTransport struct {
	rt    http.RoundTripper
	calls *int
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	*c.calls++
	return c.rt.RoundTrip(req)
}

func TestLocateErrorsAlignPerVersion(t *testing.T) {
	qs := []query{{X: 10, Y: 5}, {X: 12, Y: 5}, {X: 14, Y: 5}, {X: 16, Y: 5}, {X: 3, Y: 3}}
	var locs []locSample
	add := func(q int, version uint64, x, y float64) {
		s := locSample{q: q}
		s.resp.Located, s.resp.Version = true, version
		s.resp.Pose = &server.PoseJSON{X: x, Y: y}
		locs = append(locs, s)
	}
	// Version 1's frame is shifted by (-100, +3) from the truth; one
	// answer is 1 m off. Version 2 has too few answers to align.
	for i, q := range qs[:4] {
		off := 0.0
		if i == 3 {
			off = 1
		}
		add(i, 1, q.X-100+off, q.Y+3)
	}
	add(4, 2, 50, 50)
	locs = append(locs, locSample{q: 4}) // not located
	errs, located := locateErrors(qs, locs)
	if located != 5 || len(errs) != 4 {
		t.Fatalf("located %d, %d errors; want 5 located, 4 scored", located, len(errs))
	}
	if m := median(errs); math.Abs(m) > 1e-9 {
		t.Errorf("median error %v, want 0", m)
	}
	if math.Abs(errs[3]-1) > 1e-9 {
		t.Errorf("off answer's error %v, want 1", errs[3])
	}
}

// TestLocatedShares takes each building's share of located answers over
// the counted samples only, so that a workload whose counted answers
// mostly miss fails the locate-share check.
func TestLocatedShares(t *testing.T) {
	qs := []query{{Building: "Lab2"}, {Building: "Lab1"}}
	var locs []locSample
	add := func(q int, counted, located bool) {
		s := locSample{q: q, counted: counted}
		if located {
			s.resp.Located, s.resp.Pose = true, &server.PoseJSON{}
		}
		locs = append(locs, s)
	}
	for i := 0; i < 10; i++ {
		add(0, true, i < 9) // Lab2: 9 of 10 counted answers locate
		add(1, true, i < 5) // Lab1: 5 of 10
		add(1, false, true) // uncounted answers do not lift Lab1's share
	}
	got := locatedShares(qs, locs)
	if math.Abs(got["Lab2"]-0.9) > 1e-12 || math.Abs(got["Lab1"]-0.5) > 1e-12 || len(got) != 2 {
		t.Fatalf("shares %v, want Lab2 0.9, Lab1 0.5", got)
	}
	if got["Lab2"] < minLocatedShare || got["Lab1"] >= minLocatedShare {
		t.Errorf("floor %.2f: Lab2 %.2f should pass, Lab1 %.2f fail", minLocatedShare, got["Lab2"], got["Lab1"])
	}
	if placedRooms("Lab2") != 2 || placedRooms("Lab1") != 0 {
		t.Errorf("placed survey rooms: Lab2 %d, Lab1 %d; want 2, 0", placedRooms("Lab2"), placedRooms("Lab1"))
	}
}
