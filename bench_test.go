// Benchmarks: one per table/figure of the paper's evaluation plus the
// ablations called out in DESIGN.md and the computational kernels that
// dominate the pipeline. Figure-level benchmarks run reduced workloads of
// the same code paths cmd/experiments exercises at full scale.
package crowdmap

import (
	"context"
	"fmt"
	"math"
	"testing"

	"crowdmap/internal/aggregate"
	"crowdmap/internal/alphashape"
	"crowdmap/internal/baseline"
	"crowdmap/internal/crowd"
	"crowdmap/internal/eval"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/forcedir"
	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/layout"
	"crowdmap/internal/mathx"
	"crowdmap/internal/trajectory"
	"crowdmap/internal/vision/hog"
	"crowdmap/internal/vision/pano"
	"crowdmap/internal/vision/surf"
	"crowdmap/internal/world"
)

// ---- shared fixtures (built once, outside timed regions) ----

func benchCaptures(b *testing.B, building *world.Building, walks, visits int, seed int64) []*crowd.Capture {
	b.Helper()
	ds, err := GenerateDataset(building, DatasetSpec{
		Users: 5, CorridorWalks: walks, RoomVisits: visits,
		NightFraction: 0.2, Seed: seed, FPS: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ds.Captures
}

func benchTracks(b *testing.B, captures []*crowd.Capture) []*Track {
	b.Helper()
	cfg := DefaultConfig()
	tracks := make([]*Track, len(captures))
	for i, c := range captures {
		kfs, traj, err := keyframe.Extract(c, cfg.Keyframe)
		if err != nil {
			b.Fatal(err)
		}
		tracks[i] = &Track{ID: c.ID, Traj: traj, KFs: kfs, Hash: c.Fingerprint()}
	}
	return tracks
}

// stripSURFIndexes clones tracks with the per-key-frame SURF indexes
// removed, forcing keyframe.Compare onto the brute-force matching path.
func stripSURFIndexes(tracks []*Track) []*Track {
	out := make([]*Track, len(tracks))
	for i, tr := range tracks {
		cp := *tr
		cp.KFs = make([]*keyframe.KeyFrame, len(tr.KFs))
		for j, kf := range tr.KFs {
			k := *kf
			k.SURFIndex = nil
			cp.KFs[j] = &k
		}
		out[i] = &cp
	}
	return out
}

func benchPanorama(b *testing.B, building *world.Building, room world.Room) *pano.Panorama {
	b.Helper()
	cam := world.DefaultCamera()
	r := world.NewRenderer(building, cam)
	pp := pano.DefaultParams()
	pp.FOV = cam.FOV
	pp.Pitch = cam.Pitch
	var frames []pano.Frame
	for d := 0.0; d < 360; d += 20 {
		h := mathx.Deg2Rad(d)
		frames = append(frames, pano.Frame{
			Image:   r.Render(world.Pose{Pos: room.Bounds.Center(), Heading: h}, world.Daylight(), nil),
			Heading: h,
		})
	}
	pn, err := pano.Stitch(frames, pp)
	if err != nil {
		b.Fatal(err)
	}
	return pn
}

// ---- Table I: hallway shape reconstruction ----

// BenchmarkTableIHallwayShape measures the hallway-shape half of Table I:
// skeleton construction plus precision/recall scoring over pre-aggregated
// trajectories (the vision-heavy stages are benchmarked separately).
func BenchmarkTableIHallwayShape(b *testing.B) {
	building := world.Lab2()
	captures := benchCaptures(b, building, 8, 0, 11)
	tracks := benchTracks(b, captures)
	// Place tracks at their truth offsets (aggregation is benchmarked in
	// BenchmarkFig7aAggregation); here we time skeleton + metric.
	var trajs []*trajectory.Trajectory
	for _, tr := range tracks {
		var off geom.Pt
		for _, kf := range tr.KFs {
			off = off.Add(kf.TruthPose.Pos.Sub(kf.LocalPos))
		}
		off = off.Scale(1 / float64(len(tr.KFs)))
		trajs = append(trajs, tr.Traj.Translate(off))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mask, shape, err := floorplan.BuildSkeleton(trajs, floorplan.DefaultSkeletonParams())
		if err != nil {
			b.Fatal(err)
		}
		plan := &floorplan.Plan{Building: building.Name, HallwayMask: mask, HallwayShape: shape}
		if _, _, err := eval.HallwayShapeScore(plan, building, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 6: plan assembly and rendering ----

func BenchmarkFig6PlanRender(b *testing.B) {
	building := world.Lab2()
	captures := benchCaptures(b, building, 6, 0, 13)
	tracks := benchTracks(b, captures)
	var trajs []*trajectory.Trajectory
	for _, tr := range tracks {
		trajs = append(trajs, tr.Traj)
	}
	mask, shape, err := floorplan.BuildSkeleton(trajs, floorplan.DefaultSkeletonParams())
	if err != nil {
		b.Fatal(err)
	}
	plan := &floorplan.Plan{Building: building.Name, HallwayMask: mask, HallwayShape: shape,
		Rooms: []floorplan.Room{{ID: "A", Center: geom.P(5, 3), Width: 5, Length: 4}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.RenderASCII(0.8); err != nil {
			b.Fatal(err)
		}
		if _, err := plan.RenderSVG(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 7a: trajectory aggregation, sequence vs single image ----

func BenchmarkFig7aAggregation(b *testing.B) {
	captures := benchCaptures(b, world.Lab2(), 6, 0, 17)
	tracks := benchTracks(b, captures)
	p := aggregate.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.Aggregate(tracks, p, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7aSingleImageAggregation(b *testing.B) {
	captures := benchCaptures(b, world.Lab2(), 6, 0, 17)
	tracks := benchTracks(b, captures)
	p := aggregate.DefaultParams()
	cmp := baseline.SingleImageComparer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.Aggregate(tracks, p, cmp); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 7b: lighting tolerance (night-frame matching) ----

func BenchmarkFig7bLighting(b *testing.B) {
	// One day and one night capture over the same stretch: measure the
	// cross-lighting pair comparison that Fig. 7b sweeps.
	building := world.Lab2()
	gen, err := crowd.NewGenerator(building)
	if err != nil {
		b.Fatal(err)
	}
	users, err := crowd.NewPopulation(2, 0.5, mathx.NewRNG(19))
	if err != nil {
		b.Fatal(err)
	}
	users[0].Night = false
	users[1].Night = true
	cfg := DefaultConfig()
	var tracks []*Track
	for i, u := range users {
		c, err := gen.SWS(fmt.Sprintf("lit-%d", i), u, geom.P(4, 7.5), geom.P(24, 7.5), mathx.NewRNG(23+int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		kfs, traj, err := keyframe.Extract(c, cfg.Keyframe)
		if err != nil {
			b.Fatal(err)
		}
		tracks = append(tracks, &Track{ID: c.ID, Traj: traj, KFs: kfs})
	}
	p := aggregate.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := aggregate.ComparePair(0, 1, tracks[0], tracks[1], p); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 7c: key-frame match latency (the paper's 0.8 s/SURF match) ----

func BenchmarkFig7cMatchLatency(b *testing.B) {
	captures := benchCaptures(b, world.Lab2(), 2, 0, 29)
	tracks := benchTracks(b, captures)
	ka := tracks[0].KFs[len(tracks[0].KFs)/2]
	kb := tracks[1].KFs[len(tracks[1].KFs)/2]
	p := keyframe.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := keyframe.Compare(ka, kb, p); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 8a/8b: room area and aspect errors ----

func BenchmarkFig8aRoomArea(b *testing.B) {
	building := world.Lab1()
	room := building.Rooms[2]
	pn := benchPanorama(b, building, room)
	lp := layout.DefaultParams()
	lp.CameraHeight = building.CameraHeight
	lp.Hypotheses = 20000 // the paper's hypothesis count
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := layout.Estimate(pn, lp, mathx.NewRNG(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		_ = math.Abs(l.Area()-room.Area()) / room.Area()
	}
}

func BenchmarkFig8bAspectRatioInertialBaseline(b *testing.B) {
	building := world.Lab2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := baseline.MeasureRoomsInertial(building, baseline.DefaultInertialRoomParams(), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 8c: force-directed room placement ----

func BenchmarkFig8cRoomLocation(b *testing.B) {
	building := world.Lab2()
	var obs []floorplan.RoomObservation
	for i, room := range building.Rooms {
		obs = append(obs, floorplan.RoomObservation{
			ID:        room.ID,
			CameraPos: room.Bounds.Center().Add(geom.P(0.3*float64(i%3), -0.2)),
			RoomLayout: layout.Layout{
				DXMinus: room.Bounds.W() / 2, DXPlus: room.Bounds.W() / 2,
				DYMinus: room.Bounds.H() / 2, DYPlus: room.Bounds.H() / 2,
			},
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rooms, err := floorplan.PlaceRooms(obs, nil, forcedir.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eval.ScoreRooms(rooms, building, geom.Pt{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 9: SfM chain vs hybrid tracking ----

func BenchmarkFig9SfM(b *testing.B) {
	building := world.Lab1()
	cam := world.DefaultCamera()
	r := world.NewRenderer(building, cam)
	var feats [][]surf.Feature
	var steps []float64
	for i := 0; i < 6; i++ {
		p := geom.P(5+0.45*float64(i), 7.2)
		frame := r.Render(world.Pose{Pos: p, Heading: 0}, world.Daylight(), nil)
		feats = append(feats, surf.Extract(frame.Luma(), surf.DefaultParams()))
		if i > 0 {
			steps = append(steps, 0.45)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.ChainSfM(feats, steps, cam, 0.12); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md Section 5) ----

// BenchmarkAblationLCSWindow sweeps the δ sequence window.
func BenchmarkAblationLCSWindow(b *testing.B) {
	rng := mathx.NewRNG(31)
	mk := func() []geom.Pt {
		pts := make([]geom.Pt, 120)
		p := geom.Pt{}
		for i := range pts {
			p = p.Add(geom.P(rng.Float64(), rng.Float64()-0.5))
			pts[i] = p
		}
		return pts
	}
	pa, pb := mk(), mk()
	for _, delta := range []int{10, 25, 50, 100} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				aggregate.LCS(pa, pb, 1.5, delta)
			}
		})
	}
}

// BenchmarkAblationStage1Gate compares the hierarchical comparison with
// and without the cheap stage-1 filter (the paper's scaling argument).
func BenchmarkAblationStage1Gate(b *testing.B) {
	captures := benchCaptures(b, world.Lab2(), 2, 0, 37)
	tracks := benchTracks(b, captures)
	ka := tracks[0].KFs[0]
	kb := tracks[1].KFs[len(tracks[1].KFs)-1] // far apart: stage 1 should reject
	gated := keyframe.DefaultParams()
	ungated := gated
	ungated.HS = 0 // stage 1 always passes; SURF always runs
	b.Run("gated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := keyframe.Compare(ka, kb, gated); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ungated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := keyframe.Compare(ka, kb, ungated); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKeyframeGate sweeps the HOG key-frame threshold h_g:
// higher thresholds keep more key-frames and cost more downstream.
func BenchmarkAblationKeyframeGate(b *testing.B) {
	captures := benchCaptures(b, world.Lab2(), 1, 0, 41)
	c := captures[0]
	for _, hg := range []float64{0.80, 0.92, 0.98} {
		b.Run(fmt.Sprintf("hg=%.2f", hg), func(b *testing.B) {
			p := keyframe.DefaultParams()
			p.HG = hg
			var kept int
			for i := 0; i < b.N; i++ {
				kfs, _, err := keyframe.Extract(c, p)
				if err != nil {
					b.Fatal(err)
				}
				kept = len(kfs)
			}
			b.ReportMetric(float64(kept), "keyframes")
		})
	}
}

// BenchmarkAblationGridResolution sweeps the occupancy grid cell size.
func BenchmarkAblationGridResolution(b *testing.B) {
	captures := benchCaptures(b, world.Lab2(), 6, 0, 43)
	tracks := benchTracks(b, captures)
	var trajs []*trajectory.Trajectory
	for _, tr := range tracks {
		trajs = append(trajs, tr.Traj)
	}
	for _, res := range []float64{0.4, 0.8, 1.6} {
		b.Run(fmt.Sprintf("res=%.1f", res), func(b *testing.B) {
			p := floorplan.DefaultSkeletonParams()
			p.GridRes = res
			p.Alpha = 2.2 * res
			for i := 0; i < b.N; i++ {
				if _, _, err := floorplan.BuildSkeleton(trajs, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHypothesisCount sweeps the layout sampling budget
// around the paper's 20,000.
func BenchmarkAblationHypothesisCount(b *testing.B) {
	building := world.Lab1()
	room := building.Rooms[2]
	pn := benchPanorama(b, building, room)
	for _, n := range []int{1000, 5000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			lp := layout.DefaultParams()
			lp.CameraHeight = building.CameraHeight
			lp.Hypotheses = n
			var lastErr float64
			for i := 0; i < b.N; i++ {
				l, err := layout.Estimate(pn, lp, mathx.NewRNG(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				lastErr = math.Abs(l.Area()-room.Area()) / room.Area()
			}
			b.ReportMetric(lastErr*100, "areaErr%")
		})
	}
}

// ---- anchor-search fast path (PR 2) ----

// anchorBenchTracks builds the two-track Lab1 fixture both anchor-search
// benchmarks share, so brute and indexed time the same workload.
func anchorBenchTracks(b *testing.B) (*Track, *Track) {
	b.Helper()
	captures := benchCaptures(b, world.Lab1(), 4, 2, 59)
	tracks := benchTracks(b, captures)
	return tracks[0], tracks[1]
}

// anchorBenchParams disables the cheap stage-1 gate so the benchmark times
// the stage the index accelerates: the SURF descriptor scan that runs for
// every key-frame pair the gate admits (the paper's 0.8 s bottleneck). The
// S2 pass/fail set is identical on both paths — surf/index_test.go pins
// match-for-match equality — so brute vs indexed is a pure speed contest
// over the same decisions.
func anchorBenchParams() aggregate.Params {
	p := aggregate.DefaultParams()
	p.KF.HS = 0
	return p
}

// BenchmarkAnchorSearchBrute times FindAnchors with the O(|F1|·|F2|)
// brute-force SURF scan (indexes stripped) — the pre-PR-2 hot path.
func BenchmarkAnchorSearchBrute(b *testing.B) {
	ta, tb := anchorBenchTracks(b)
	stripped := stripSURFIndexes([]*Track{ta, tb})
	p := anchorBenchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.FindAnchors(stripped[0], stripped[1], p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnchorSearchIndexed times the same anchor search through the
// grid-bucketed descriptor index. Decisions are identical to the brute
// path (see surf/index_test.go); only the work changes.
func BenchmarkAnchorSearchIndexed(b *testing.B) {
	ta, tb := anchorBenchTracks(b)
	p := anchorBenchParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.FindAnchors(ta, tb, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmCacheAggregation times a full aggregation replay against a
// prewarmed pair cache — the steady state of crowdmapd re-running after an
// upload adds nothing new — and reports the measured cache hit rate.
func BenchmarkWarmCacheAggregation(b *testing.B) {
	captures := benchCaptures(b, world.Lab2(), 6, 0, 17)
	tracks := benchTracks(b, captures)
	p := aggregate.DefaultParams()
	cache := aggregate.NewPairCache(0)
	ctx := context.Background()
	if _, err := ParallelAggregate(ctx, tracks, p, 0, cache); err != nil {
		b.Fatal(err)
	}
	reg := NewMetricsRegistry()
	p.KF.Obs = reg
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParallelAggregate(ctx, tracks, p, 0, cache); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c := reg.Snapshot().Counters
	total := c["compare.cache.hits"] + c["compare.cache.misses"] + c["compare.cache.bypass"]
	if total > 0 {
		b.ReportMetric(float64(c["compare.cache.hits"])/float64(total)*100, "hit%")
	}
}

// ---- stage-1 scoring (PR 6) ----

// stage1BenchLists extracts the two key-frame lists both stage-1 scoring
// benchmarks share, so the per-pair and batched paths time the same
// workload: every cross pair of the two anchor-search tracks.
func stage1BenchLists(b *testing.B) (as, bs []*keyframe.KeyFrame, p keyframe.Params) {
	ta, tb := anchorBenchTracks(b)
	return ta.KFs, tb.KFs, keyframe.DefaultParams()
}

// BenchmarkStage1PairScoring times the pre-PR-6 shape of the cheap gate:
// one keyframe.Stage1 call per pair, walking the wavelet coefficient maps
// each time.
func BenchmarkStage1PairScoring(b *testing.B) {
	as, bs, p := stage1BenchLists(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ka := range as {
			for _, kb := range bs {
				if _, err := keyframe.Stage1(ka, kb, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkStage1BlockScoring times the batched scorer over the same
// pairs: channel-major passes over flattened signatures into a reused
// score buffer. Scores are bit-identical to the per-pair path
// (keyframe/stage1_test.go pins that).
func BenchmarkStage1BlockScoring(b *testing.B) {
	as, bs, p := stage1BenchLists(b)
	var buf []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := keyframe.Stage1Block(as, bs, p, buf)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

// ---- incremental delta reconstruction (PR 7) ----

// deltaBenchFixture builds the delta-vs-full workload: a base corpus the
// daemon has already reconstructed, plus one fresh never-seen capture —
// the steady-state "one more upload arrives" event both benchmarks time.
func deltaBenchFixture(b *testing.B) (base []*Capture, corpus []*Capture, cfg Config) {
	b.Helper()
	ds, err := GenerateDataset(world.Lab2(), DatasetSpec{
		Users: 5, CorridorWalks: 9, RoomVisits: 3, Seed: 61, FPS: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	captures := ds.Captures
	base = captures[:len(captures)-1]
	corpus = captures
	cfg = DefaultConfig()
	cfg.Layout.Hypotheses = 400
	cfg.Seed = 7
	return base, corpus, cfg
}

// BenchmarkFullRebuild times what every upload used to cost: a cold
// end-to-end reconstruction of the whole corpus including the new
// capture.
func BenchmarkFullRebuild(b *testing.B) {
	_, corpus, cfg := deltaBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrajectoryOnlyReconstruct times the CrowdInside-style
// workload: a frame-less IMU-only corpus dead-reckoned, turn-matched, and
// rasterized through the occupancy/α-shape stages. No vision work at all,
// so this bounds the cost floor of a trajectory-mode deployment.
func BenchmarkTrajectoryOnlyReconstruct(b *testing.B) {
	ds, err := GenerateDataset(world.Lab2(), DatasetSpec{
		Users: 5, CorridorWalks: 9, RoomVisits: 3, Seed: 61, FPS: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	corpus := make([]*Capture, len(ds.Captures))
	for i, src := range ds.Captures {
		c := *src
		c.Frames = nil
		c.FPS = 0
		corpus[i] = &c
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Mode = ModeTrajectory
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(corpus, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeltaUpdate times the same corpus change through
// ReconstructDelta with a state warmed on the base corpus: only the new
// capture's extraction, its pair comparisons, a grid patch, and the cheap
// shared tail run. Each iteration clones the warm state (outside the
// timed region), so the new capture is genuinely never-seen every time —
// no iteration rides a previous iteration's memo.
func BenchmarkDeltaUpdate(b *testing.B) {
	base, corpus, cfg := deltaBenchFixture(b)
	ctx := context.Background()
	warm := NewDeltaState()
	if _, err := ReconstructDelta(ctx, sourcesOf(base), cfg, warm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := warm.Clone()
		b.StartTimer()
		if _, err := ReconstructDelta(ctx, sourcesOf(corpus), cfg, st); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- computational kernels ----

func BenchmarkKernelRenderFrame(b *testing.B) {
	building := world.Lab1()
	r := world.NewRenderer(building, world.DefaultCamera())
	pose := world.Pose{Pos: geom.P(20, 7.2), Heading: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Render(pose, world.Daylight(), nil)
	}
}

func BenchmarkKernelSURFExtract(b *testing.B) {
	building := world.Lab1()
	r := world.NewRenderer(building, world.DefaultCamera())
	luma := r.Render(world.Pose{Pos: geom.P(20, 7.2), Heading: 0}, world.Daylight(), nil).Luma()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		surf.Extract(luma, surf.DefaultParams())
	}
}

func BenchmarkKernelSURFMatch(b *testing.B) {
	building := world.Lab1()
	r := world.NewRenderer(building, world.DefaultCamera())
	fa := surf.Extract(r.Render(world.Pose{Pos: geom.P(20, 7.2), Heading: 0}, world.Daylight(), nil).Luma(), surf.DefaultParams())
	fb := surf.Extract(r.Render(world.Pose{Pos: geom.P(20.3, 7.2), Heading: 0.05}, world.Daylight(), nil).Luma(), surf.DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		surf.Match(fa, fb, 0.12)
	}
}

func BenchmarkKernelHOG(b *testing.B) {
	building := world.Lab1()
	r := world.NewRenderer(building, world.DefaultCamera())
	luma := r.Render(world.Pose{Pos: geom.P(20, 7.2), Heading: 0}, world.Daylight(), nil).Luma()
	p := hog.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hog.Compute(luma, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelPanoramaStitch(b *testing.B) {
	building := world.Lab1()
	cam := world.DefaultCamera()
	r := world.NewRenderer(building, cam)
	pp := pano.DefaultParams()
	pp.FOV = cam.FOV
	pp.Pitch = cam.Pitch
	room := building.Rooms[0]
	var frames []pano.Frame
	for d := 0.0; d < 360; d += 20 {
		h := mathx.Deg2Rad(d)
		frames = append(frames, pano.Frame{
			Image:   r.Render(world.Pose{Pos: room.Bounds.Center(), Heading: h}, world.Daylight(), nil),
			Heading: h,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pano.Stitch(frames, pp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelDelaunay(b *testing.B) {
	rng := mathx.NewRNG(47)
	pts := make([]geom.Pt, 400)
	for i := range pts {
		pts[i] = geom.P(rng.Float64()*40, rng.Float64()*30)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alphashape.Delaunay(pts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelDeadReckon(b *testing.B) {
	captures := benchCaptures(b, world.Lab2(), 1, 0, 53)
	imu := captures[0].IMU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trajectory.DeadReckon(imu, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelIntegralImage times the pooled summed-area-table rebuild
// (img.NewIntegralInto) that SURF extraction and HOG both sit on; with a
// reused table it must run allocation-free.
func BenchmarkKernelIntegralImage(b *testing.B) {
	building := world.Lab1()
	r := world.NewRenderer(building, world.DefaultCamera())
	luma := r.Render(world.Pose{Pos: geom.P(20, 7.2), Heading: 0}, world.Daylight(), nil).Luma()
	it := img.NewIntegral(luma)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.NewIntegralInto(it, luma)
	}
}
