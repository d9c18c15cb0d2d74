package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"crowdmap/internal/cloud/server"
	"crowdmap/internal/crowd"
	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/mathx"
	"crowdmap/internal/world"
)

// inputsVersion names the generation recipe; bump it whenever the code
// below changes what a seed produces, so cached inputs are not reused.
const inputsVersion = "v14"

// fps is the capture frame rate (the datagen default).
const fps = 3.5

// baseSeed generates each building's base corpus: the survey already
// stored when the daemon starts. It is the same in every run. On corpora
// this small, which tracks the aggregation manages to place swings the
// cost of every later rebuild by a third from one random corpus to the
// next; a fixed survey keeps that swing out of the comparison, while the
// run's seed still draws everything the daemon receives during the run:
// the uploads' users, routes and sensor noise, and the query frames.
const baseSeed = 2015

const (
	kindWalk  = "walk"
	kindVisit = "visit"
)

// baseCorpora is each building's base survey: walks, then room visits.
var baseCorpora = map[string][2]int{
	"Lab2": {5, 2},
	"Lab1": {3, 1},
}

// durationBand holds every capture's duration (hence its frame count,
// archive size and decode and extraction cost) to a band, so that the
// seed changes what a capture sees, not how much work it is.
var durationBand = map[string][2]float64{
	"Lab2/" + kindWalk:  {12, 18},
	"Lab2/" + kindVisit: {26, 32},
	"Lab1/" + kindWalk:  {15, 21},
	"Lab1/" + kindVisit: {30, 38},
}

// placedSurvey lists, per building, the base survey captures that
// crowdmap.Reconstruct placed when the survey was reconstructed alone, in
// the order the daemon reads its store, when this benchmark was written.
// Timed uploads and query re-walks repeat these routes. They are fixed
// here, not recomputed, so that a run's inputs depend only on the
// simulator, the wire encoder and the seed, never on the reconstruction
// code being measured.
var placedSurvey = map[string]map[string]bool{
	"Lab2": {"Lab2-walk-03": true, "Lab2-walk-04": true, "Lab2-visit-01": true, "Lab2-visit-02": true},
	"Lab1": {"Lab1-walk-02": true, "Lab1-walk-03": true},
}

// visitRooms are the rooms visited, in order: base visits first, then
// the workload's timed visits.
var visitRooms = map[string][]string{
	"Lab2": {"L2-B3", "L2-T4", "L2-B5", "L2-T2"},
	"Lab1": {"L1-B4", "L1-CB3", "L1-B6"},
}

// capture is one upload archive with what the checks need to know.
type capture struct {
	ID       string
	Building string
	Kind     string
	Archive  []byte
	// Room is a visit's room.
	Room string
	// From and To are the capture's true start and end points.
	From, To geom.Pt
}

// query is one locate request: a frame from a held-out capture (never
// uploaded) and the position it was taken from.
type query struct {
	Building string
	PNG      []byte
	X, Y     float64
}

// inputs is everything one workload run sends to the daemon.
type inputs struct {
	// Base is written into the data directory before the daemon starts.
	Base []capture
	// Timed is uploaded over HTTP during the timed phase, in order.
	Timed   []capture
	Queries []query
}

// buildingPlan is one building's part in a workload.
type buildingPlan struct {
	Building string
	// Timed lists the kinds uploaded during the run, in order, one upload
	// per event.
	Timed []string
	// Queries locate queries are frames of held-out walks: every user of
	// the run's population re-walks every placed survey walk (same end
	// points and direction, never uploaded), and evenly spaced frames of
	// the re-walks, taken in turn, become the queries. A corpus this small
	// places only some of its tracks, and a random held-out walk often sees
	// nothing the index holds; re-walks of placed routes are on mapped
	// ground, so most queries locate and the median query is a located
	// one (when half locate, the median sits between the cheap and the
	// costly answers and swings by a third from seed to seed). Frames from
	// all six users keep the mix from hanging on one user's camera.
	Queries int
}

// workloadPlans fixes each workload's make-up.
var workloadPlans = map[string][]buildingPlan{
	"grow": {{Building: "Lab2", Timed: []string{kindWalk, kindVisit}, Queries: 240}},
	// locate ends with one visit upload, so that it too reports the
	// write-side metrics. A walk upload was left out: on some seeds (seed
	// 2) the plan it leaves collapses to a few hallway cells and fails the
	// hallway-f1 check (CHANGES.md, FOUND).
	"locate": {{Building: "Lab2", Timed: []string{kindVisit}, Queries: 240}},
	"mixed": {
		{Building: "Lab2", Timed: []string{kindWalk, kindVisit}, Queries: 120},
		{Building: "Lab1", Queries: 120},
	},
}

// retraceFPS is the frame rate of held-out walks, which only supply
// query frames.
const retraceFPS = 2

// capJob is one capture to synthesize.
type capJob struct {
	building *world.Building
	id, kind string
	room     world.Room
	user     *crowd.User
	seed     int64
	// retrace is the capture a walk or visit repeats: a walk takes its
	// end points, a visit its room and (within nearM) its end point.
	retrace *capture
	// fps is the frame rate (0 = the default).
	fps float64
}

// nearM is how close a repeated visit must end to the original's end.
const nearM = 3.0

// loadInputs returns a workload's inputs for a seed, from the cache
// directory when an earlier run generated them. Generation is never timed.
func loadInputs(cacheDir, workload string, seed int64) (*inputs, error) {
	plans, ok := workloadPlans[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	in := &inputs{}
	for bi, bp := range plans {
		b, err := world.ByName(bp.Building)
		if err != nil {
			return nil, err
		}
		base, err := cached(filepath.Join(cacheDir, fmt.Sprintf("%s-base-%s.gob", inputsVersion, b.Name)),
			func() ([]capture, error) { return baseSurvey(b) })
		if err != nil {
			return nil, err
		}
		part, err := cached(filepath.Join(cacheDir, fmt.Sprintf("%s-%s-%d-%s.gob", inputsVersion, workload, seed, b.Name)),
			func() (*inputs, error) { return seededPart(b, bp, base, seed*1000003+int64(bi)) })
		if err != nil {
			return nil, err
		}
		in.Base = append(in.Base, base...)
		in.Timed = append(in.Timed, part.Timed...)
		in.Queries = append(in.Queries, part.Queries...)
	}
	return in, nil
}

// baseSurvey generates a building's fixed survey from baseSeed.
func baseSurvey(b *world.Building) ([]capture, error) {
	rng := mathx.NewRNG(baseSeed)
	users, err := crowd.NewPopulation(6, 0, rng)
	if err != nil {
		return nil, err
	}
	n := baseCorpora[b.Name]
	var kinds []string
	for i := 0; i < n[0]; i++ {
		kinds = append(kinds, kindWalk)
	}
	for i := 0; i < n[1]; i++ {
		kinds = append(kinds, kindVisit)
	}
	return synthesizeAll(b, kinds, users, rng, 0, 0)
}

// seededPart generates what a run sends during its timed phase: the
// building's timed uploads and its held-out query frames. Both repeat
// surveyed ground, as a crowd does: a timed walk re-walks the route of a
// placed survey walk and a timed visit repeats a placed survey visit, so
// each timed upload is likely to join the plan (an upload the pipeline
// cannot place leaves the plan unchanged, which would make storage and
// memory per run depend on the seed's luck), and held-out walks re-walk
// the placed survey walks.
func seededPart(b *world.Building, bp buildingPlan, base []capture, seed int64) (*inputs, error) {
	rng := mathx.NewRNG(seed)
	users, err := crowd.NewPopulation(6, 0, rng)
	if err != nil {
		return nil, err
	}
	placed := map[string][]*capture{}
	for i := range base {
		if c := &base[i]; placedSurvey[b.Name][c.ID] {
			placed[c.Kind] = append(placed[c.Kind], c)
		}
	}
	n := baseCorpora[b.Name]
	count := map[string]int{kindWalk: n[0], kindVisit: n[1]}
	repeated := map[string]int{}
	var jobs []capJob
	for i, k := range bp.Timed {
		if len(placed[k]) == 0 {
			return nil, fmt.Errorf("%s survey has no placed %s to repeat", b.Name, k)
		}
		// The i-th timed capture of a kind repeats the i-th placed survey
		// capture of that kind, so every seed sends uploads of the same size.
		j := capJob{building: b, kind: k, user: users[i%len(users)], seed: rng.Int63(),
			retrace: placed[k][repeated[k]%len(placed[k])]}
		repeated[k]++
		count[k]++
		j.id = fmt.Sprintf("%s-%s-%02d", b.Name, k, count[k])
		jobs = append(jobs, j)
	}
	for k, w := range placed[kindWalk] {
		for ui, u := range users {
			jobs = append(jobs, capJob{
				building: b, kind: kindWalk, id: fmt.Sprintf("heldout-%s-walk-%02d-%s", b.Name, k+1, u.ID),
				user: users[ui], seed: rng.Int63(), retrace: w, fps: retraceFPS,
			})
		}
	}
	rewalks := len(jobs) - len(bp.Timed)
	if rewalks == 0 {
		return nil, fmt.Errorf("%s survey has no placed walk to re-walk", b.Name)
	}
	per := (bp.Queries + rewalks - 1) / rewalks
	timed := make([]capture, len(bp.Timed))
	qs := make([][]query, len(jobs))
	err = parallel(len(jobs), func(i int) error {
		c, err := synthesize(jobs[i])
		if err != nil {
			return err
		}
		if i >= len(timed) {
			qs[i], err = queriesFrom(c, b.Name, per)
			return err
		}
		timed[i], err = encode(b, jobs[i], c)
		return err
	})
	if err != nil {
		return nil, err
	}
	part := &inputs{Timed: timed}
	// Take the re-walks' frames in turn, so every re-walk contributes.
	for f := 0; len(part.Queries) < bp.Queries; f++ {
		added := false
		for _, q := range qs[len(timed):] {
			if f < len(q) && len(part.Queries) < bp.Queries {
				part.Queries = append(part.Queries, q[f])
				added = true
			}
		}
		if !added {
			return nil, fmt.Errorf("%s: re-walks hold only %d query frames, want %d", b.Name, len(part.Queries), bp.Queries)
		}
	}
	return part, nil
}

// synthesizeAll renders and encodes captures of the given kinds, numbering
// walks and visits on from the given counts and visiting visitRooms in
// order.
func synthesizeAll(b *world.Building, kinds []string, users []*crowd.User, rng *rand.Rand, walks, visits int) ([]capture, error) {
	jobs := make([]capJob, len(kinds))
	for i, k := range kinds {
		j := capJob{building: b, kind: k, user: users[i%len(users)], seed: rng.Int63()}
		if k == kindWalk {
			walks++
			j.id = fmt.Sprintf("%s-walk-%02d", b.Name, walks)
		} else {
			id := visitRooms[b.Name][visits%len(visitRooms[b.Name])]
			visits++
			j.id = fmt.Sprintf("%s-visit-%02d", b.Name, visits)
			found := false
			for _, r := range b.Rooms {
				if r.ID == id {
					j.room, found = r, true
				}
			}
			if !found {
				return nil, fmt.Errorf("%s has no room %s", b.Name, id)
			}
		}
		jobs[i] = j
	}
	out := make([]capture, len(jobs))
	err := parallel(len(jobs), func(i int) error {
		c, err := synthesize(jobs[i])
		if err != nil {
			return err
		}
		out[i], err = encode(b, jobs[i], c)
		return err
	})
	return out, err
}

// encode packs a synthesized capture into its upload archive.
func encode(b *world.Building, j capJob, c *crowd.Capture) (capture, error) {
	data, err := server.EncodeCapture(c)
	if err != nil {
		return capture{}, fmt.Errorf("encode %s: %w", c.ID, err)
	}
	return capture{
		ID: c.ID, Building: b.Name, Kind: j.kind, Room: c.RoomID, Archive: data,
		From: c.Truth[0].Pos, To: c.Truth[len(c.Truth)-1].Pos,
	}, nil
}

// synthesize renders one capture. A repeated walk takes the end points
// of the walk it repeats, a repeated visit is the first candidate ending
// within nearM of the original, and any other capture the first candidate
// whose duration lies in its band; candidates are dry runs without frames
// that make the same random draws.
func synthesize(j capJob) (*crowd.Capture, error) {
	gen, err := crowd.NewGenerator(j.building)
	if err != nil {
		return nil, err
	}
	rate := fps
	if j.fps > 0 {
		rate = j.fps
	}
	room := j.room
	t := j.retrace
	if t != nil && j.kind == kindWalk {
		gen.FPS = rate
		return gen.SWS(j.id, j.user, t.From, t.To, mathx.NewRNG(j.seed))
	}
	if t != nil {
		for _, r := range j.building.Rooms {
			if r.ID == t.Room {
				room = r
			}
		}
	}
	make1 := func(seed int64) (*crowd.Capture, error) {
		if j.kind == kindVisit {
			return gen.Visit(j.id, j.user, room, mathx.NewRNG(seed))
		}
		return gen.SWS(j.id, j.user, geom.Pt{}, geom.Pt{}, mathx.NewRNG(seed))
	}
	band := durationBand[j.building.Name+"/"+j.kind]
	pick := rand.New(rand.NewSource(j.seed))
	for attempt := 0; attempt < 2000; attempt++ {
		s := pick.Int63()
		gen.FPS = 1e-3
		c, err := make1(s)
		if err != nil {
			continue
		}
		end := c.Truth[len(c.Truth)-1]
		if t != nil {
			// The route is the original's; its duration follows the user's pace.
			if end.Pos.Dist(t.To) > nearM {
				continue
			}
		} else if d := end.T - c.Truth[0].T; d < band[0] || d > band[1] {
			continue
		}
		gen.FPS = rate
		return make1(s)
	}
	return nil, fmt.Errorf("no %s %s within %v s after 2000 candidates", j.building.Name, j.kind, band)
}

// parallel runs fn(0..n-1) on two goroutines (the reference machine has
// two CPUs) and returns the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// queriesFrom takes n evenly spaced frames of a held-out capture as
// locate queries, PNG-encoded the way the phone app sends them.
func queriesFrom(c *crowd.Capture, building string, n int) ([]query, error) {
	if len(c.Frames) < n {
		n = len(c.Frames)
	}
	var out []query
	for i := 0; i < n; i++ {
		f := c.Frames[i*len(c.Frames)/n]
		var buf bytes.Buffer
		if err := png.Encode(&buf, toImage(f.Image)); err != nil {
			return nil, fmt.Errorf("encode query frame: %w", err)
		}
		out = append(out, query{Building: building, PNG: buf.Bytes(), X: f.TruthPose.Pos.X, Y: f.TruthPose.Pos.Y})
	}
	return out, nil
}

// toImage converts a float RGB plane to 8-bit, as the wire encoder does.
func toImage(m *img.RGB) *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, m.W, m.H))
	to8 := func(v float64) uint8 {
		if v <= 0 {
			return 0
		}
		if v >= 1 {
			return 255
		}
		return uint8(v*255 + 0.5)
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r, g, b := m.At(x, y)
			out.SetRGBA(x, y, color.RGBA{R: to8(r), G: to8(g), B: to8(b), A: 255})
		}
	}
	return out
}

// digest is the sha256 over every byte sent to the daemon, in order; two
// runs with equal digests ran on byte-identical inputs.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, set := range [][]capture{in.Base, in.Timed} {
		for _, c := range set {
			fmt.Fprintf(h, "%s\x00%s\x00", c.ID, c.Building)
			h.Write(c.Archive)
		}
	}
	for _, q := range in.Queries {
		fmt.Fprintf(h, "%s\x00%g\x00%g\x00", q.Building, q.X, q.Y)
		h.Write(q.PNG)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cached returns the value gob-stored at path, or makes and stores it.
func cached[T any](path string, make func() (T, error)) (T, error) {
	var v T
	if data, err := os.ReadFile(path); err == nil {
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&v) == nil {
			return v, nil
		}
	}
	v, err := make()
	if err != nil {
		return v, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return v, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return v, err
	}
	// Write then rename, so a run killed mid-write leaves no torn file.
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return v, err
	}
	return v, os.Rename(tmp, path)
}
