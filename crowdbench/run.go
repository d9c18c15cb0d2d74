package main

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowdmap/internal/cloud/server"
	"crowdmap/internal/obs"
	"crowdmap/internal/world"
)

// alignLead is how long before a scan tick a timed upload is sent, half
// the scan interval. It exceeds the upload's ack time (67–442 ms seen),
// so the upload is stored before the tick and waits a fixed lead minus
// its ack instead of a random share of the scan interval.
const alignLead = scanInterval / 2

// Output-check floors (see README.md for how each was chosen).
const (
	minHallwayPrecision = 0.8
	maxRoomAreaErr      = 0.5
	maxLocateErrM       = 3.0
	// minLocatedShare is the least share of a building's counted locate
	// answers that must locate: a miss is cheaper than a match, so
	// without it a change that stops matching would lower locate latency.
	minLocatedShare = 0.9
)

// minHallwayF1 is each building's hallway F1 floor, below the range its
// final plans scored in every recorded run (Lab2 0.157–0.375, Lab1 0.071).
var minHallwayF1 = map[string]float64{"Lab2": 0.12, "Lab1": 0.06}

// run is one benchmark run of one workload.
type run struct {
	bin, dir, workload string
	seconds            int
	traced             bool
	in                 *inputs
	// bodies holds each query's locate request body, encoded before the
	// run so encoding is never timed.
	bodies            [][]byte
	hc                *http.Client
	clients           int
	metrics           map[string]metric
	attempted, failed int

	d       *daemon
	dataDir string
	setupS  float64
	events  []*event
	// locs holds every locate answered; counted marks the ones the
	// workload's latency metrics are taken from.
	mu   sync.Mutex
	locs []locSample
	// served records, per building, every plan version seen served, and
	// latest the newest one's plan JSON (scored after the timed phase).
	served map[string]map[uint64]bool
	latest map[string]servedPlan
	spans  spanLog
	final  obs.Snapshot
	cpuS   float64
	rssMiB float64
	dataMB float64
}

// event is one timed upload: sent at sent, acknowledged ack later.
type event struct {
	c    capture
	sent time.Time
	ack  time.Duration
	// started is when a job that includes the upload was seen enqueued,
	// servedT when the publish of its result was seen completed.
	started, servedT time.Time
	// before is the daemon's /metrics just before the upload, after the
	// snapshot once the daemon is idle again.
	before, after obs.Snapshot
	// span is the event's span, parent of its upload and waits.
	span int
}

func (ev *event) acked() time.Time { return ev.sent.Add(ev.ack) }

type locSample struct {
	q       int
	start   time.Time
	lat     time.Duration
	counted bool
	resp    server.LocateResponse
}

type servedPlan struct {
	version uint64
	json    []byte
}

// buildings lists the workload's buildings, in plan order.
func (r *run) buildings() []string {
	var out []string
	for _, bp := range workloadPlans[r.workload] {
		out = append(out, bp.Building)
	}
	return out
}

// execute runs the workload end to end: setup, timed phase, output
// checks, shutdown, then (traced runs) the in-process layer probes.
func (r *run) execute() error {
	r.spans.start = time.Now()
	// Data directories grow to 100–200 MiB a run; only the daemon log and
	// spans stay behind. Runs after the daemon is gone (defers run last
	// in, first out).
	defer r.removeData()
	r.dataDir = filepath.Join(r.dir, "data")
	if err := seedDataDir(r.dataDir, r.in.Base); err != nil {
		return fmt.Errorf("seed data dir: %w", err)
	}
	d, err := launch(r.bin, r.dataDir, filepath.Join(r.dir, "crowdmapd.log"), scanInterval, r.hc)
	if err != nil {
		return err
	}
	r.d = d
	defer func() {
		select {
		case <-d.exited:
		default:
			d.kill()
		}
	}()
	if err := r.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if _, err := d.waitIdle(time.Now().Add(2 * time.Minute)); err != nil {
		return fmt.Errorf("after setup: %w", err)
	}
	var phaseErr error
	switch r.workload {
	case "grow":
		// grow opens with the locate phase: after its uploads, behind two
		// rebuilds' garbage, a locate probe's median moved by a quarter
		// and its tail by a factor of three from run to run.
		if phaseErr = r.locatePhase(); phaseErr == nil {
			phaseErr = r.uploadEvents(nil)
		}
	case "locate":
		if phaseErr = r.locatePhase(); phaseErr == nil {
			phaseErr = r.uploadEvents(nil)
		}
	case "mixed":
		phaseErr = r.mixedPhase()
	}
	if phaseErr != nil {
		return phaseErr
	}
	if r.dataMB, err = dirMiB(r.dataDir); err != nil {
		return err
	}
	checkErr := r.checkServed()
	if r.final, err = d.metrics(); err != nil {
		return err
	}
	hwm := d.vmHWM()
	if err := d.stop(); err != nil {
		return err
	}
	r.cpuS, r.rssMiB = d.cpuS, d.rssMiB
	after, _ := dirMiB(r.dataDir)
	logf("daemon peak RSS %.0f MiB before shutdown, %.0f MiB at exit; CPU %.1fs; data dir %.1f MiB live, %.1f MiB after shutdown",
		hwm, r.rssMiB, r.cpuS, r.dataMB, after)
	if checkErr != nil {
		return checkErr
	}
	if err := r.endToEnd(); err != nil {
		return err
	}
	if r.traced {
		return r.traceLayers()
	}
	return nil
}

// removeData deletes the run's data directory and probe stores.
func (r *run) removeData() {
	entries, _ := os.ReadDir(r.dir)
	for _, e := range entries {
		if e.IsDir() {
			_ = os.RemoveAll(filepath.Join(r.dir, e.Name()))
		}
	}
}

// setup times daemon launch until every base building's plan is served
// (and, on locate, until the first locate is answered).
func (r *run) setup() error {
	deadline := time.Now().Add(3 * time.Minute)
	for _, b := range r.buildings() {
		for {
			data, v, ok, err := fetchPlan(r.hc, r.d.base, b)
			if err != nil {
				return err
			}
			if ok {
				r.notePlan(b, v, data)
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: no plan served after 3 minutes", b)
			}
			time.Sleep(pollEvery)
		}
	}
	if r.workload == "locate" {
		if _, err := r.locateOnce(0, false); err != nil {
			return err
		}
	}
	r.setupS = time.Since(r.d.launched).Seconds()
	r.spans.add("setup", -1, -1, r.d.launched, time.Now())
	logf("setup %.2fs", r.setupS)
	return nil
}

func (r *run) notePlan(b string, v uint64, data []byte) {
	if r.served[b] == nil {
		r.served[b] = map[uint64]bool{}
	}
	r.served[b][v] = true
	if v >= r.latest[b].version {
		r.latest[b] = servedPlan{version: v, json: data}
	}
}

// uploadEvents sends the workload's timed uploads, one per event. Each
// event starts once the daemon is idle, sending its upload alignLead
// before a scan tick, and ends when the first publish that includes the
// upload has completed and the daemon is idle again, so every event is
// measured alone. inFlight, when set, is told when an event's upload is
// sent and when it is served.
func (r *run) uploadEvents(inFlight func(on bool)) error {
	for _, c := range r.in.Timed {
		ev := &event{c: c}
		target := r.d.nextTick(time.Now().Add(alignLead + 20*time.Millisecond))
		time.Sleep(time.Until(target.Add(-alignLead)))
		var err error
		if ev.before, err = r.d.metrics(); err != nil {
			return err
		}
		if inFlight != nil {
			inFlight(true)
		}
		id := len(r.events)
		ev.span = r.spans.add("event", -1, id, time.Now(), time.Now())
		ev.sent, ev.ack, err = upload(r.hc, r.d.base, c)
		r.count(err)
		r.spans.add("upload "+c.ID, ev.span, id, ev.sent, ev.acked())
		if err != nil {
			return err
		}
		if ev.acked().After(target) {
			logf("upload %s acked %.0f ms after the tick it was sent ahead of", c.ID, ev.acked().Sub(target).Seconds()*1000)
		}
		if err := r.waitServed(ev, id); err != nil {
			return err
		}
		if inFlight != nil {
			inFlight(false)
		}
		b := c.Building
		data, v, ok, err := fetchPlan(r.hc, r.d.base, b)
		if err != nil || !ok {
			return fmt.Errorf("plan after event %d: served=%t %v", id, ok, err)
		}
		r.notePlan(b, v, data)
		if ev.after, err = r.d.waitIdle(time.Now().Add(2 * time.Minute)); err != nil {
			return err
		}
		r.spans.end(ev.span, time.Now())
		r.events = append(r.events, ev)
		logf("upload %s: ack %.0fms, served %.2fs after ack", c.ID, ev.ack.Seconds()*1000, ev.servedT.Sub(ev.acked()).Seconds())
	}
	return nil
}

// waitServed polls /metrics until the event's upload is served: a job
// enqueued after ev.before has started, and a publish has completed
// since, whether it bumped the version or left the plan unchanged. The
// daemon was idle at ev.before, its last scan having found nothing to
// do, so the upload is the only change a later scan can see: the first
// job enqueued after it was enqueued because a scan listed the upload,
// and its corpus includes it, even when that scan ran before the 201
// reached the client.
func (r *run) waitServed(ev *event, id int) error {
	deadline := time.Now().Add(3 * time.Minute)
	enq0 := counter(ev.before, "sched.jobs.enqueued")
	var pub0 int64 = -1
	for {
		s, err := r.d.metrics()
		if err != nil {
			return err
		}
		now := time.Now()
		if pub0 < 0 && counter(s, "sched.jobs.enqueued") > enq0 {
			pub0, ev.started = publishEvents(s), now
			r.spans.add("wait for scan and worker", ev.span, id, ev.acked(), now)
		}
		if pub0 >= 0 && servedSince(pub0, s) {
			ev.servedT = now
			r.spans.add("job until publish", ev.span, id, ev.started, now)
			return nil
		}
		if now.After(deadline) {
			return fmt.Errorf("event %d not served after 3 minutes", id)
		}
		time.Sleep(pollEvery)
	}
}

// servedSince reports whether a publish completed after the one counted
// in pub0; an unchanged publish counts.
func servedSince(pub0 int64, s obs.Snapshot) bool { return publishEvents(s) > pub0 }

// locateOnce sends query q, records the sample and returns its index in
// r.locs.
func (r *run) locateOnce(q int, counted bool) (int, error) {
	qq := r.in.Queries[q]
	resp, lat, err := locate(r.hc, r.d.base, qq.Building, r.bodies[q])
	s := locSample{q: q, start: time.Now().Add(-lat), lat: lat, counted: counted, resp: resp}
	r.spans.add("locate "+qq.Building, -1, -1, s.start, s.start.Add(lat))
	r.count(err)
	if err != nil {
		return -1, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.locs = append(r.locs, s)
	return len(r.locs) - 1, nil
}

// count tallies one attempted operation, failed when err is set; mixed
// calls it from two goroutines.
func (r *run) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
	}
}

// locateQueries is the locate workload's fixed query count for a run of
// the given length: about what two clients answer in that time here.
func locateQueries(seconds int) int { return 60 * seconds }

// locatePhase is the locate workload's timed phase: closed-loop clients
// send a fixed number of queries, cycling through the query set.
func (r *run) locatePhase() error {
	n := locateQueries(r.seconds)
	var wg sync.WaitGroup
	errs := make([]error, r.clients)
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += r.clients {
				if _, err := r.locateOnce(i%len(r.in.Queries), true); err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mixedCounted is how many locate samples mixed counts per event, taken
// evenly across the event's in-flight window (all of them if the window
// holds fewer): a fixed sample count keeps the tail at one percentile.
// Windows hold about 500 samples here.
const mixedCounted = 400

// mixedPhase runs grow's upload events while one client locates against
// both buildings without pause; only samples sent while an upload is in
// flight (sent, not yet served) are eligible, so every counted sample
// sees the same contention, and mixedCounted of each event's are counted.
func (r *run) mixedPhase() error {
	order := interleave(r.in.Queries)
	var mu sync.Mutex
	inFlight := false
	window := 0
	stop := make(chan struct{})
	done := make(chan error, 1)
	windows := make([][]int, len(r.in.Timed))
	go func() {
		var first error
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- first
				return
			default:
			}
			mu.Lock()
			w := -1
			if inFlight {
				w = window
			}
			mu.Unlock()
			at, err := r.locateOnce(order[i%len(order)], false)
			if err != nil && first == nil {
				first = err
			}
			if err == nil && w >= 0 {
				windows[w] = append(windows[w], at)
			}
		}
	}()
	err := r.uploadEvents(func(on bool) {
		mu.Lock()
		if inFlight && !on {
			window++
		}
		inFlight = on
		mu.Unlock()
	})
	close(stop)
	if lerr := <-done; err == nil {
		err = lerr
	}
	if err != nil {
		return err
	}
	for _, idx := range windows[:len(r.events)] {
		n := min(len(idx), mixedCounted)
		for j := 0; j < n; j++ {
			r.locs[idx[j*len(idx)/n]].counted = true
		}
	}
	return nil
}

// interleave orders query indexes so consecutive queries alternate
// between buildings.
func interleave(qs []query) []int {
	byB := map[string][]int{}
	var names []string
	for i, q := range qs {
		if byB[q.Building] == nil {
			names = append(names, q.Building)
		}
		byB[q.Building] = append(byB[q.Building], i)
	}
	var out []int
	for k := 0; len(out) < len(qs); k++ {
		for _, b := range names {
			if k < len(byB[b]) {
				out = append(out, byB[b][k])
			}
		}
	}
	return out
}

// checkServed compares what the daemon serves with the ground truth:
// every upload is listed, every building's final plan meets the floors,
// located poses lie near the query's true pose, and every locate answer
// names a plan version that was served.
func (r *run) checkServed() error {
	ids, err := listCaptures(r.hc, r.d.base)
	if err != nil {
		return err
	}
	for _, set := range [][]capture{r.in.Base, r.in.Timed} {
		for _, c := range set {
			if !ids[c.ID] {
				return &checkError{"captures-listed", c.ID + " missing from GET /api/v1/captures"}
			}
		}
	}
	for _, b := range r.buildings() {
		p := r.latest[b]
		w, err := world.ByName(b)
		if err != nil {
			return err
		}
		sc, err := scorePlanJSON(p.json, w)
		if err != nil {
			return &checkError{"plan-score", fmt.Sprintf("%s v%d: %v", b, p.version, err)}
		}
		v := p.version
		logf("%s v%d: hallway %s over %d cells, %d rooms, area err %.3f", b, v, sc.Hallway, sc.Cells, sc.Rooms, sc.AreaErr)
		switch rooms := placedRooms(b); {
		case sc.Hallway.Precision < minHallwayPrecision:
			return &checkError{"hallway-precision", fmt.Sprintf("%s v%d: %.3f < %.2f", b, v, sc.Hallway.Precision, minHallwayPrecision)}
		case sc.Hallway.F < minHallwayF1[b]:
			return &checkError{"hallway-f1", fmt.Sprintf("%s v%d: %.3f < %.2f", b, v, sc.Hallway.F, minHallwayF1[b])}
		case sc.Rooms < rooms:
			return &checkError{"rooms-served", fmt.Sprintf("%s v%d: %d labelled rooms, want the %d of the placed survey visits", b, v, sc.Rooms, rooms)}
		case sc.Rooms > 0 && sc.AreaErr > maxRoomAreaErr:
			return &checkError{"room-area", fmt.Sprintf("%s v%d: %.3f > %.2f", b, v, sc.AreaErr, maxRoomAreaErr)}
		}
	}
	for _, s := range r.locs {
		b := r.in.Queries[s.q].Building
		if !r.served[b][s.resp.Version] {
			return &checkError{"locate-version", fmt.Sprintf("%s answered on version %d, never served", b, s.resp.Version)}
		}
	}
	for b, sh := range locatedShares(r.in.Queries, r.locs) {
		if sh < minLocatedShare {
			return &checkError{"locate-share", fmt.Sprintf("%s: %.3f of counted answers located < %.2f", b, sh, minLocatedShare)}
		}
	}
	errs, located := locateErrors(r.in.Queries, r.locs)
	if len(errs) == 0 {
		return &checkError{"locate-error", "fewer than 3 queries located on every plan version"}
	}
	if m := median(errs); m > maxLocateErrM {
		return &checkError{"locate-error", fmt.Sprintf("median located-pose error %.2f m > %.1f m", m, maxLocateErrM)}
	}
	logf("located %d of %d answers, median error %.2f m", located, len(r.locs), median(errs))
	return nil
}

// placedRooms is how many distinct rooms a building's placed survey
// visits cover: rooms its plan must serve.
func placedRooms(b string) int {
	rooms := map[string]bool{}
	for i, id := range visitRooms[b] {
		if placedSurvey[b][fmt.Sprintf("%s-visit-%02d", b, i+1)] {
			rooms[id] = true
		}
	}
	return len(rooms)
}

// locatedShares returns, per building, the share of counted locate
// answers that located.
func locatedShares(qs []query, locs []locSample) map[string]float64 {
	n, ok := map[string]int{}, map[string]int{}
	for _, s := range locs {
		if !s.counted {
			continue
		}
		b := qs[s.q].Building
		n[b]++
		if s.resp.Located && s.resp.Pose != nil {
			ok[b]++
		}
	}
	out := map[string]float64{}
	for b, k := range n {
		out[b] = float64(ok[b]) / float64(k)
	}
	return out
}

// locateErrors returns the distances between located poses and the
// queries' true positions. Each plan version has its own frame, so the
// located poses of one version are aligned to ground truth by the
// translation that is the component-wise median of (truth - located)
// over them; a version with fewer than 3 located answers is skipped.
// (The plan's hallway alignment cannot stand in: when the served hallway
// covers a short stretch of a straight corridor, every shift along the
// corridor overlaps it equally.)
func locateErrors(qs []query, locs []locSample) (errs []float64, located int) {
	type key struct {
		b string
		v uint64
	}
	groups := map[key][]locSample{}
	for _, s := range locs {
		if s.resp.Located && s.resp.Pose != nil {
			k := key{qs[s.q].Building, s.resp.Version}
			groups[k] = append(groups[k], s)
			located++
		}
	}
	for _, g := range groups {
		if len(g) < 3 {
			continue
		}
		var dx, dy []float64
		for _, s := range g {
			dx = append(dx, qs[s.q].X-s.resp.Pose.X)
			dy = append(dy, qs[s.q].Y-s.resp.Pose.Y)
		}
		ox, oy := median(dx), median(dy)
		for _, s := range g {
			errs = append(errs, math.Hypot(s.resp.Pose.X+ox-qs[s.q].X, s.resp.Pose.Y+oy-qs[s.q].Y))
		}
	}
	return errs, located
}

// endToEnd fills the untraced metrics.
func (r *run) endToEnd() error {
	var acks, fresh, lat []float64
	for _, ev := range r.events {
		acks = append(acks, ev.ack.Seconds()*1000)
		fresh = append(fresh, ev.servedT.Sub(ev.acked()).Seconds())
	}
	for _, s := range r.locs {
		if s.counted {
			lat = append(lat, s.lat.Seconds()*1000)
		}
	}
	p, tailV := tail(lat)
	logf("%d locate samples counted; tail p%d %.1f ms", len(lat), p, tailV)
	vals := []struct {
		name, unit string
		v          float64
	}{
		{"setup_s", "s", r.setupS},
		{"fresh_s", "s", median(fresh)},
		{"locate_p50_ms", "ms", median(lat)},
		{"daemon_cpu_s", "s", r.cpuS},
		{"peak_rss_mb", "MiB", r.rssMiB},
		{"data_dir_mb", "MiB", r.dataMB},
	}
	for _, m := range vals {
		if err := finite(m.name, m.v); err != nil {
			return err
		}
		if !r.traced {
			r.metrics[m.name] = metric{Value: m.v, Unit: m.unit}
		}
	}
	// The ack median rests on one or two uploads per run, and one ack
	// varies threefold with the daemon's garbage collection; the locate
	// tail moved by up to half its median between runs of grow. Both are
	// traced (ungated) figures rather than end-to-end metrics.
	if r.traced {
		r.metrics["server.upload_ack_ms"] = metric{Value: median(acks), Unit: "ms"}
		r.metrics["trace.locate_tail_ms"] = metric{Value: tailV, Unit: "ms"}
	}
	if err := finite("trace.locate_tail_ms", tailV); err != nil {
		return err
	}
	return finite("server.upload_ack_ms", median(acks))
}
