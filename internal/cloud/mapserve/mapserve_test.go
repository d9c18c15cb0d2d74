package mapserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"crowdmap"
	"crowdmap/internal/aggregate"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/crowd"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/geom"
	"crowdmap/internal/gridmap"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/mathx"
	"crowdmap/internal/sensor"
	"crowdmap/internal/world"
)

// fixture holds one real reconstruction-shaped result: a generated SWS
// capture run through the actual key-frame extractor, wrapped in a Result
// with a single placed track and a small renderable plan. Built once —
// extraction is the expensive part — and shared read-only across tests.
type fixtureData struct {
	res *crowdmap.Result
	cap *crowd.Capture
	// kfs are the extracted key-frames (aliased by res).
	kfs []*keyframe.KeyFrame
}

var (
	fixOnce sync.Once
	fixErr  error
	fix     fixtureData
)

const fixBuilding = "Lab2"

func fixture(t *testing.T) fixtureData {
	t.Helper()
	fixOnce.Do(func() {
		users, err := crowd.NewPopulation(1, 0, mathx.NewRNG(1))
		if err != nil {
			fixErr = err
			return
		}
		gen, err := crowd.NewGenerator(world.Lab2())
		if err != nil {
			fixErr = err
			return
		}
		c, err := gen.SWS("serve-fix", users[0], geom.P(3, 7.5), geom.P(14, 7.5), mathx.NewRNG(7))
		if err != nil {
			fixErr = err
			return
		}
		kfs, traj, err := keyframe.Extract(c, keyframe.DefaultParams())
		if err != nil {
			fixErr = err
			return
		}
		track := &crowdmap.Track{ID: c.ID, Traj: traj, KFs: kfs}
		fix = fixtureData{
			res: &crowdmap.Result{
				Plan:        fixturePlan(nil),
				Tracks:      []*crowdmap.Track{track},
				Aggregation: &aggregate.Result{Offsets: map[int]geom.Pt{0: geom.P(0, 0)}},
			},
			cap: c,
			kfs: kfs,
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	if len(fix.kfs) < 2 {
		t.Fatalf("fixture produced %d key-frames, need >= 2", len(fix.kfs))
	}
	return fix
}

// fixturePlan builds a small deterministic plan: an L-shaped hallway mask
// plus any extra rooms (used to fabricate content changes).
func fixturePlan(rooms []floorplan.Room) *floorplan.Plan {
	mask := &gridmap.Binary{
		Bounds: geom.R(0, 0, 10, 8),
		Res:    1,
		W:      10, H: 8,
		Cells: make([]bool, 80),
	}
	for x := 1; x < 9; x++ {
		mask.Cells[3*10+x] = true
	}
	for y := 3; y < 7; y++ {
		mask.Cells[y*10+2] = true
	}
	return &floorplan.Plan{Building: fixBuilding, HallwayMask: mask, Rooms: rooms}
}

// changedResult clones the fixture result with one extra room — same
// tracks and key-frames, different plan content.
func changedResult(f fixtureData) *crowdmap.Result {
	room := floorplan.Room{ID: "r1", Center: geom.P(5, 5.5), Width: 2, Length: 3, Theta: 0}
	return &crowdmap.Result{
		Plan:        fixturePlan([]floorplan.Room{room}),
		Tracks:      f.res.Tracks,
		Aggregation: f.res.Aggregation,
	}
}

func newTestService(t *testing.T, st *store.Store, opts ...Option) *Service {
	t.Helper()
	s, err := New(st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// queryFrame returns the source frame of key-frame kf (matching capture
// time), so a locate query carries exactly the pixels the index was built
// from, plus the IMU prefix up to that moment.
func queryFrame(t *testing.T, f fixtureData, kfIdx int) (*crowd.VideoFrame, []sensor.Sample) {
	t.Helper()
	kf := f.kfs[kfIdx]
	for i := range f.cap.Frames {
		if f.cap.Frames[i].T == kf.T {
			cut := 0
			for j, s := range f.cap.IMU {
				if s.T <= kf.T {
					cut = j + 1
				}
			}
			return &f.cap.Frames[i], f.cap.IMU[:cut]
		}
	}
	t.Fatalf("no capture frame at key-frame time %v", kf.T)
	return nil, nil
}

func TestPublishVersioningAndETagStability(t *testing.T) {
	f := fixture(t)
	st := store.New()
	s := newTestService(t, st)

	v1, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 || v1.ETag == "" {
		t.Fatalf("first publish = %+v, want version 1 with non-empty etag", v1)
	}

	// Identical rebuild: same ETag, no version bump.
	v2, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version != v1.Version || v2.ETag != v1.ETag {
		t.Fatalf("identical republish changed identity: %+v -> %+v", v1, v2)
	}

	view, ok := s.Plan(fixBuilding)
	if !ok {
		t.Fatal("Plan() miss after publish")
	}
	var doc PlanDoc
	if err := json.Unmarshal(view.JSON, &doc); err != nil {
		t.Fatalf("served JSON invalid: %v", err)
	}
	if doc.Version != view.Version || doc.Building != fixBuilding {
		t.Fatalf("JSON doc identity %s/v%d, view %s/v%d", doc.Building, doc.Version, view.Building, view.Version)
	}
	if len(doc.Hallway) == 0 {
		t.Fatal("served JSON has no hallway cells")
	}
	if len(view.PNG) == 0 {
		t.Fatal("served PNG empty")
	}

	// Content change: version bump, new ETag, old index cleaned up.
	oldIndexKey := indexKey(fixBuilding, v1.ETag)
	v3, err := s.Publish(fixBuilding, changedResult(f))
	if err != nil {
		t.Fatal(err)
	}
	if v3.Version != v1.Version+1 {
		t.Fatalf("changed publish version = %d, want %d", v3.Version, v1.Version+1)
	}
	if v3.ETag == v1.ETag {
		t.Fatal("changed publish kept the old ETag")
	}
	if _, ok := st.Get(CollServe, oldIndexKey); ok {
		t.Fatal("superseded index document not deleted")
	}
	if _, ok := st.Get(CollServe, indexKey(fixBuilding, v3.ETag)); !ok {
		t.Fatal("current index document missing")
	}

	// Reverting to the original content bumps again (no version reuse) but
	// reproduces the original ETag: content identity is stable.
	v4, err := s.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}
	if v4.Version != v3.Version+1 {
		t.Fatalf("revert publish version = %d, want %d", v4.Version, v3.Version+1)
	}
	if v4.ETag != v1.ETag {
		t.Fatal("identical content produced different ETags across rebuilds")
	}
}

func TestPublishValidation(t *testing.T) {
	f := fixture(t)
	s := newTestService(t, store.New())
	if _, err := s.Publish("", f.res); err == nil {
		t.Error("empty building accepted")
	}
	if _, err := s.Publish(fixBuilding, nil); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := s.Publish(fixBuilding, &crowdmap.Result{}); err == nil {
		t.Error("result without plan accepted")
	}
}

func TestLocateFindsSourceKeyFrame(t *testing.T) {
	f := fixture(t)
	st := store.New()
	s := newTestService(t, st)
	if _, err := s.Publish(fixBuilding, f.res); err != nil {
		t.Fatal(err)
	}

	kfIdx := len(f.kfs) / 2
	frame, imu := queryFrame(t, f, kfIdx)

	res, err := s.Locate(fixBuilding, frame.Image, imu)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Located {
		t.Fatalf("query from key-frame %d's own source frame not located (%d candidates)", kfIdx, res.Candidates)
	}
	if res.TrackID != f.cap.ID {
		t.Errorf("TrackID = %q, want %q", res.TrackID, f.cap.ID)
	}
	want := f.kfs[kfIdx].LocalPos
	if d := geom.P(res.Pose.X, res.Pose.Y).Dist(want); d > 1e-6 {
		t.Errorf("pose %v is %.3fm from key-frame position %v", res.Pose, d, want)
	}
	if res.Version != 1 || res.ETag == "" {
		t.Errorf("locate version identity = v%d etag %q", res.Version, res.ETag)
	}
	if res.Confidence <= 0 {
		t.Errorf("confidence = %v, want > 0", res.Confidence)
	}

	// Without IMU the heading gate is off and the result is the same place.
	noIMU, err := s.Locate(fixBuilding, frame.Image, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !noIMU.Located || geom.P(noIMU.Pose.X, noIMU.Pose.Y).Dist(want) > 1e-6 {
		t.Errorf("locate without IMU = %+v, want pose at %v", noIMU, want)
	}
	if noIMU.Candidates < res.Candidates {
		t.Errorf("ungated candidates %d < gated %d", noIMU.Candidates, res.Candidates)
	}
}

func TestLocateHeadingGate(t *testing.T) {
	f := fixture(t)
	s := newTestService(t, store.New())
	if _, err := s.Publish(fixBuilding, f.res); err != nil {
		t.Fatal(err)
	}
	kfIdx := len(f.kfs) / 2
	frame, _ := queryFrame(t, f, kfIdx)

	// A single-sample IMU snippet initializes the heading filter straight
	// from the compass. Pointing it 90° off every key-frame of the straight
	// walk must gate out all candidates.
	offIMU := []sensor.Sample{{T: 0, Compass: f.kfs[kfIdx].Heading + math.Pi/2}}
	res, err := s.Locate(fixBuilding, frame.Image, offIMU)
	if err != nil {
		t.Fatal(err)
	}
	if res.Located || res.Candidates != 0 {
		t.Errorf("perpendicular heading: located=%v candidates=%d, want gated out", res.Located, res.Candidates)
	}

	// Pointing it at the matched key-frame's heading keeps the match.
	onIMU := []sensor.Sample{{T: 0, Compass: f.kfs[kfIdx].Heading}}
	res, err = s.Locate(fixBuilding, frame.Image, onIMU)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Located {
		t.Errorf("aligned heading: not located (%d candidates)", res.Candidates)
	}
}

func TestLocateUnknownBuilding(t *testing.T) {
	f := fixture(t)
	s := newTestService(t, store.New())
	frame, _ := queryFrame(t, f, 0)
	if _, err := s.Locate("nowhere", frame.Image, nil); !errors.Is(err, ErrUnknownBuilding) {
		t.Fatalf("error = %v, want ErrUnknownBuilding", err)
	}
	if _, ok := s.Plan("nowhere"); ok {
		t.Fatal("Plan() hit for unpublished building")
	}
}

func TestLocateEmptyIndex(t *testing.T) {
	// A result with no aggregation (e.g. the degraded stub a processor may
	// publish) yields an empty index: locate misses cleanly, no error.
	f := fixture(t)
	s := newTestService(t, store.New())
	stub := &crowdmap.Result{Plan: fixturePlan(nil)}
	if _, err := s.Publish(fixBuilding, stub); err != nil {
		t.Fatal(err)
	}
	frame, _ := queryFrame(t, f, 0)
	res, err := s.Locate(fixBuilding, frame.Image, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Located || res.Candidates != 0 {
		t.Errorf("empty index: located=%v candidates=%d", res.Located, res.Candidates)
	}
}

func TestRestartServesPersistedVersion(t *testing.T) {
	f := fixture(t)
	st := store.New()
	s1 := newTestService(t, st)
	v, err := s1.Publish(fixBuilding, f.res)
	if err != nil {
		t.Fatal(err)
	}

	// A fresh service over the same store (the restart path) serves the
	// same version and localizes from the persisted index.
	s2 := newTestService(t, st)
	view, ok := s2.Plan(fixBuilding)
	if !ok {
		t.Fatal("restarted service misses published plan")
	}
	if view.Version != v.Version || view.ETag != v.ETag {
		t.Fatalf("restarted identity %d/%s, want %d/%s", view.Version, view.ETag, v.Version, v.ETag)
	}
	kfIdx := len(f.kfs) / 2
	frame, _ := queryFrame(t, f, kfIdx)
	res, err := s2.Locate(fixBuilding, frame.Image, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Located {
		t.Fatal("restarted service failed to locate from persisted index")
	}
	want := f.kfs[kfIdx].LocalPos
	if d := geom.P(res.Pose.X, res.Pose.Y).Dist(want); d > 1e-6 {
		t.Errorf("restarted pose %.3fm off", d)
	}
}

func TestIndexCodecRoundTrip(t *testing.T) {
	f := fixture(t)
	p := keyframe.DefaultParams()
	art := buildLocArtifact(f.res, p)
	if len(art.KFs) != len(f.kfs) {
		t.Fatalf("artifact has %d key-frames, want %d", len(art.KFs), len(f.kfs))
	}
	data, err := encodeLocIndex(art)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := decodeLocIndex(data)
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
	// A decoded key-frame must drive the hierarchical comparison to the
	// same decision and score as the live one it was persisted from.
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
}

func TestIndexCacheLRU(t *testing.T) {
	c := newIndexCache(2)
	a, b, d := &locIndex{}, &locIndex{}, &locIndex{}
	if ev := c.put("a", a); ev != 0 {
		t.Fatalf("evicted %d on first put", ev)
	}
	c.put("b", b)
	// Touch a so b is the LRU victim.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	if ev := c.put("d", d); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU evicted the wrong entry")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	c.remove("a")
	if c.len() != 1 {
		t.Fatalf("len = %d after remove, want 1", c.len())
	}
	// Capacity floor: zero clamps to one.
	c0 := newIndexCache(0)
	c0.put("x", a)
	c0.put("y", b)
	if c0.len() != 1 {
		t.Fatalf("cap-0 cache holds %d entries", c0.len())
	}
}

func TestConcurrentLocateDuringPublish(t *testing.T) {
	// Readers running concurrently with publishes must only ever observe
	// complete versions: every (version, ETag) pair seen — via Plan or
	// Locate — must be internally consistent, and locates must never fail
	// on a half-written index.
	f := fixture(t)
	st := store.New()
	s := newTestService(t, st)
	resA, resB := f.res, changedResult(f)
	if _, err := s.Publish(fixBuilding, resA); err != nil {
		t.Fatal(err)
	}
	vA, _ := s.Publish(fixBuilding, resA)
	vB, err := s.Publish(fixBuilding, resB)
	if err != nil {
		t.Fatal(err)
	}
	etagByContent := map[string]string{"A": vA.ETag, "B": vB.ETag}

	frame, _ := queryFrame(t, f, len(f.kfs)/2)

	var (
		mu        sync.Mutex
		seen      = map[uint64]string{} // version -> etag
		firstFail error
	)
	record := func(version uint64, etag string) {
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := seen[version]; ok && prev != etag {
			if firstFail == nil {
				firstFail = errVersionTornState(version, prev, etag)
			}
			return
		}
		seen[version] = etag
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: keep flipping the published content.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			res := resA
			if i%2 == 0 {
				res = resB
			}
			if _, err := s.Publish(fixBuilding, res); err != nil {
				mu.Lock()
				if firstFail == nil {
					firstFail = err
				}
				mu.Unlock()
				break
			}
		}
		close(stop)
	}()
	// Plan readers.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view, ok := s.Plan(fixBuilding)
				if !ok {
					continue
				}
				var doc PlanDoc
				if err := json.Unmarshal(view.JSON, &doc); err != nil || doc.Version != view.Version {
					mu.Lock()
					if firstFail == nil {
						firstFail = errVersionTornState(view.Version, "json-doc-mismatch", view.ETag)
					}
					mu.Unlock()
					return
				}
				record(view.Version, view.ETag)
			}
		}()
	}
	// Locate readers: each answer must carry a consistent version identity
	// and a known content ETag.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, err := s.Locate(fixBuilding, frame.Image, nil)
				if err != nil {
					mu.Lock()
					if firstFail == nil {
						firstFail = err
					}
					mu.Unlock()
					return
				}
				if res.ETag != etagByContent["A"] && res.ETag != etagByContent["B"] {
					mu.Lock()
					if firstFail == nil {
						firstFail = errVersionTornState(res.Version, "unknown-etag", res.ETag)
					}
					mu.Unlock()
					return
				}
				record(res.Version, res.ETag)
			}
		}()
	}
	wg.Wait()
	if firstFail != nil {
		t.Fatal(firstFail)
	}
	if len(seen) == 0 {
		t.Fatal("no versions observed")
	}
}

func errVersionTornState(version uint64, prev, next string) error {
	return fmt.Errorf("torn version %d: %s vs %s", version, prev, next)
}
