package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"os"
	"path/filepath"
	"sync"
	"time"

	"crowdmap"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/img"
	"crowdmap/internal/obs"
)

// span is one client call, wait or in-process probe, kept in memory and
// written to spans.json in the run directory when a traced run ends.
type span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Event   int     `json:"event"`
}

type spanLog struct {
	mu    sync.Mutex
	on    bool
	start time.Time
	spans []span
}

// add records a span and returns its index (-1 when tracing is off).
func (l *spanLog) add(name string, parent, event int, start, end time.Time) int {
	if !l.on {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name:    name,
		StartMs: start.Sub(l.start).Seconds() * 1000,
		EndMs:   end.Sub(l.start).Seconds() * 1000,
		Parent:  parent,
		Event:   event,
	})
	return len(l.spans) - 1
}

// end sets the end of span i (no-op when tracing is off).
func (l *spanLog) end(i int, t time.Time) {
	if i < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].EndMs = t.Sub(l.start).Seconds() * 1000
}

// layerSet collects per-layer metrics, keeping the first one that could
// not be measured as its error.
type layerSet struct {
	m   map[string]metric
	err error
}

func (l *layerSet) set(name, unit string, v float64) {
	if l.err == nil {
		l.err = finite(name, v)
	}
	l.m[name] = metric{Value: v, Unit: unit}
}

// delta is after-before for a counter or a histogram sum, summed over
// the timed upload events.
func (r *run) delta(f func(obs.Snapshot, string) float64, name string) float64 {
	var d float64
	for _, ev := range r.events {
		d += f(ev.after, name) - f(ev.before, name)
	}
	return d
}

func cnt(s obs.Snapshot, name string) float64 { return float64(counter(s, name)) }

// traceLayers computes the per-layer metrics of a traced run: deltas of
// the daemon's own /metrics around each timed upload, timings the client
// saw, and in-process calls into each layer on the run's inputs, made
// after the daemon has exited so they contend with nothing.
func (r *run) traceLayers() error {
	l := &layerSet{m: r.metrics}
	ups := float64(len(r.events))
	final := r.final
	perUp := func(name, unit, src string, f func(obs.Snapshot, string) float64) {
		l.set(name, unit, r.delta(f, src)/ups)
	}
	ratio := func(name, num, den string) {
		l.set(name, "fraction", r.delta(cnt, num)/r.delta(cnt, den))
	}
	perUp("store.syncs_per_upload", "count", "store.wal.syncs", cnt)
	l.set("store.wal_mib_per_upload", "MiB", r.delta(cnt, "store.wal.append.bytes")/ups/(1<<20))
	perUp("sched.jobs_per_upload", "count", "sched.jobs.completed", cnt)
	perUp("sched.job_s", "s", "sched.job.seconds", histSum)
	perUp("reconstruct.total_s", "s", "stage.reconstruct.total.seconds", histSum)
	perUp("keyframe.extract_s", "s", "stage.keyframe.extract.seconds", histSum)
	ratio("keyframe.kept_ratio", "keyframe.kept", "keyframe.frames")
	perUp("aggregate.s", "s", "stage.aggregate.seconds", histSum)
	perUp("aggregate.pairs_compared", "count", "aggregate.pairs.compared", cnt)
	l.set("compare.cache_hit_ratio", "fraction", r.delta(cnt, "compare.cache.hits")/
		(r.delta(cnt, "compare.cache.hits")+r.delta(cnt, "compare.cache.misses")))
	ratio("compare.s1_pass_ratio", "compare.s1.passed", "compare.s1.evaluated")
	perUp("rooms.s", "s", "stage.rooms.seconds", histSum)
	perUp("skeleton.s", "s", "stage.skeleton.seconds", histSum)
	perUp("place.s", "s", "stage.place.seconds", histSum)

	// Whole-life daemon figures, from its last snapshot.
	scans := float64(histCount(final, "queue.run.seconds") - histCount(final, "scrub.seconds"))
	l.set("queue.scan_ms", "ms", (histSum(final, "queue.run.seconds")-histSum(final, "scrub.seconds"))/scans*1000)
	daemonLocMs := histSum(final, "mapserve.locate.seconds") / float64(histCount(final, "mapserve.locate.seconds")) * 1000
	l.set("mapserve.locate_ms", "ms", daemonLocMs)
	var clientMs, cands []float64
	for _, s := range r.locs {
		clientMs = append(clientMs, s.lat.Seconds()*1000)
		cands = append(cands, float64(s.resp.Candidates))
	}
	l.set("server.locate_overhead_ms", "ms", mean(clientMs)-daemonLocMs)
	l.set("mapserve.locate_candidates", "count", median(cands))
	l.set("mapserve.index_misses_per_publish", "count", cnt(final, "mapserve.index.cache.misses")/float64(publishEvents(final)))

	// Client-side timings per upload, from its ack.
	var waits, fresh []float64
	for _, ev := range r.events {
		waits = append(waits, ev.started.Sub(ev.acked()).Seconds())
		fresh = append(fresh, ev.servedT.Sub(ev.acked()).Seconds())
	}
	l.set("crowdmapd.wait_s", "s", median(waits))
	l.set("trace.fresh_s", "s", median(fresh))
	var lat []float64
	for _, s := range r.locs {
		if s.counted {
			lat = append(lat, s.lat.Seconds()*1000)
		}
	}
	l.set("trace.locate_p50_ms", "ms", median(lat))
	if l.err != nil {
		return l.err
	}
	if err := r.probeLayers(l, waits, fresh); err != nil {
		return err
	}
	if l.err != nil {
		return l.err
	}
	return r.writeSpans()
}

// probeLayers makes the in-process calls: the decode, store, pipeline and
// read-tier work each timed event caused, replayed on the same archives.
// waits and fresh are each event's, counted from its ack.
func (r *run) probeLayers(l *layerSet, waits, fresh []float64) error {
	// server.DecodeCapture over every archive the daemon received.
	var decodeMs, mib float64
	for _, set := range [][]capture{r.in.Base, r.in.Timed} {
		for _, c := range set {
			t := time.Now()
			if _, err := server.DecodeCapture(c.Archive); err != nil {
				return fmt.Errorf("decode %s: %w", c.ID, err)
			}
			decodeMs += time.Since(t).Seconds() * 1000
			mib += float64(len(c.Archive)) / (1 << 20)
		}
	}
	l.set("server.decode_ms_per_mib", "ms/MiB", decodeMs/mib)

	// store.Put of each timed archive into a WAL under the default policy.
	wal, err := store.OpenWAL(filepath.Join(r.dir, "put-probe"))
	if err != nil {
		return err
	}
	var puts []float64
	for _, c := range append(append([]capture(nil), r.in.Base...), r.in.Timed...) {
		t := time.Now()
		if err := wal.Store().Put(server.CollCaptures, c.ID, c.Archive); err != nil {
			wal.Close()
			return err
		}
		puts = append(puts, time.Since(t).Seconds()*1000)
	}
	if err := wal.Close(); err != nil {
		return err
	}
	l.set("store.put_ms", "ms", median(puts))

	// Replay each event's job: decode the building's corpus as the daemon
	// does at job start, reconstruct it, publish it into a WAL-backed read
	// tier like the daemon's.
	var corpusDecode, publish, sums []float64
	var last struct {
		ms   *mapserve.Service
		wal  *store.WAL
		b    string
		etag string
	}
	defer func() {
		if last.wal != nil {
			last.wal.Close()
		}
	}()
	for i, ev := range r.events {
		b := ev.c.Building
		var archives []capture
		for _, c := range append(append([]capture(nil), r.in.Base...), r.in.Timed[:i+1]...) {
			if c.Building == b {
				archives = append(archives, c)
			}
		}
		t := time.Now()
		var corpus []*crowdmap.Capture
		for _, c := range archives {
			dc, err := server.DecodeCapture(c.Archive)
			if err != nil {
				return err
			}
			corpus = append(corpus, dc)
		}
		dec := time.Since(t).Seconds()
		r.spans.add("in-process corpus decode", -1, i, t, t.Add(time.Duration(dec*float64(time.Second))))
		corpusDecode = append(corpusDecode, dec)
		res, err := crowdmap.Reconstruct(corpus, crowdmap.DefaultConfig())
		if err != nil {
			return fmt.Errorf("replay event %d: %w", i, err)
		}
		if last.wal != nil {
			last.wal.Close()
		}
		last.wal, err = store.OpenWAL(filepath.Join(r.dir, fmt.Sprintf("publish-probe-%d", i)))
		if err != nil {
			return err
		}
		if last.ms, err = mapserve.New(last.wal.Store()); err != nil {
			return err
		}
		t = time.Now()
		v, err := last.ms.Publish(b, res)
		if err != nil {
			return err
		}
		pub := time.Since(t).Seconds()
		r.spans.add("in-process publish", -1, i, t, time.Now())
		publish = append(publish, pub)
		last.b, last.etag = b, v.ETag
		stage := ev.after.Histograms["stage.reconstruct.total.seconds"].Sum - ev.before.Histograms["stage.reconstruct.total.seconds"].Sum
		logf("event %d: fresh %.2fs after its ack = wait %.2fs + corpus decode %.2fs + pipeline %.2fs + publish %.2fs (sum %.2fs)",
			i, fresh[i], waits[i], dec, stage, pub, waits[i]+dec+stage+pub)
		sums = append(sums, waits[i]+dec+stage+pub)
	}
	l.set("trace.fresh_layers_s", "s", median(sums))
	l.set("crowdmapd.corpus_decode_s", "s", median(corpusDecode))
	l.set("mapserve.publish_s", "s", median(publish))

	// The last replayed publish: index size, verify cost, cold index load.
	idx, ok := last.wal.Store().Get(mapserve.CollServe, last.b+"/index@"+last.etag[:16])
	if !ok {
		return fmt.Errorf("published index document not found")
	}
	l.set("mapserve.index_mib", "MiB", float64(len(idx))/(1<<20))
	var verify []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		if _, err := last.ms.Verify(last.b); err != nil {
			return err
		}
		verify = append(verify, time.Since(t).Seconds()*1000)
	}
	l.set("mapserve.verify_ms", "ms", median(verify))
	frame, err := queryFrame(r.in, last.b)
	if err != nil {
		return err
	}
	cold, err := mapserve.New(last.wal.Store())
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := cold.Locate(last.b, frame, nil); err != nil {
		return err
	}
	coldMs := time.Since(t).Seconds() * 1000
	var warm []float64
	for k := 0; k < 5; k++ {
		t := time.Now()
		if _, err := cold.Locate(last.b, frame, nil); err != nil {
			return err
		}
		warm = append(warm, time.Since(t).Seconds()*1000)
	}
	l.set("mapserve.index_load_ms", "ms", coldMs-median(warm))
	return nil
}

// queryFrame decodes the first query of a building, as the server does.
func queryFrame(in *inputs, building string) (*img.RGB, error) {
	for _, q := range in.Queries {
		if q.Building != building {
			continue
		}
		im, err := png.Decode(bytes.NewReader(q.PNG))
		if err != nil {
			return nil, err
		}
		b := im.Bounds()
		out := img.NewRGB(b.Dx(), b.Dy())
		for y := 0; y < b.Dy(); y++ {
			for x := 0; x < b.Dx(); x++ {
				cr, cg, cb, _ := im.At(b.Min.X+x, b.Min.Y+y).RGBA()
				out.Set(x, y, float64(cr)/65535, float64(cg)/65535, float64(cb)/65535)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("no query for %s", building)
}

// writeSpans saves the span log next to the run's daemon log.
func (r *run) writeSpans() error {
	data, err := json.Marshal(r.spans.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.dir, "spans.json"), data, 0o644)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
