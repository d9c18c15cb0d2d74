package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"crowdmap"
	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/cloud/queue"
	"crowdmap/internal/cloud/sched"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
)

// Store collections owned by the processor (the server owns captures, the
// read tier owns plans; see server.CollCaptures / mapserve.CollServe).
const (
	// collDeadLetter holds capture archives quarantined as poison: they made
	// reconstruction fail repeatedly, so they are moved out of the working
	// set and the corpus is processed without them. An operator can inspect
	// and re-admit them by moving the document back.
	collDeadLetter = "deadletter"
	// collState holds small processor state documents (the pair cache dump).
	collState = "state"
	// statePairCache is the collState key of the exported pair cache.
	statePairCache = "paircache"
)

// minCaptures is the corpus size a building needs before it is
// reconstructed.
const minCaptures = 3

// maxCaptureFailures is how many failed reconstruction attempts a single
// capture may cause before it is quarantined to the dead-letter
// collection. Failures caused by cancellation (shutdown, per-attempt
// deadlines) never count: only deterministic pipeline failures do.
const maxCaptureFailures = 3

// processor turns stored captures into floor plans. The server's upload
// commit hook (stored) marks the upload's building at once, and a
// periodic scan reconciles the whole store as a backstop. Both group the
// capture corpus by building and compute a per-building corpus
// fingerprint; buildings whose served plan was not built from that corpus
// (mapserve.Current) are enqueued on the per-building scheduler, which
// runs them concurrently on a bounded worker pool (never two jobs for the
// same building at once). The read tier's plan record is the one place
// that says what was built from what, so there is nothing to keep in
// agreement with it.
type processor struct {
	st         *store.Store
	hypotheses int
	workers    int
	obs        *crowdmap.MetricsRegistry
	logMetrics bool
	// quality configures the reconstruction-side input gate; nil disables
	// it (the daemon default is the lenient policy, set by newProcessor).
	quality *crowdmap.QualityParams
	// mode selects the reconstruction modalities (-mode): vision,
	// trajectory, or hybrid per-modality routing.
	mode crowdmap.Mode
	// stageBudget is the soft per-stage wall-clock budget (0 = off).
	stageBudget time.Duration
	// journal checkpoints the pair-comparison stage, so a job cut off by a
	// restart resumes from the pair decisions it already made.
	journal *crowdmap.CheckpointJournal
	// cache persists pair-comparison decisions across reconstruction
	// cycles: when new uploads arrive, only pairs involving new content are
	// compared (the paper's incremental-aggregation scaling, minus the
	// Spark cluster). It is exported to the store after each job, so a
	// restarted daemon starts warm. Safe for concurrent building jobs.
	cache *crowdmap.PairCache
	// sched serializes and parallelizes building jobs; created by start.
	sched *sched.Scheduler
	// reconstruct is the pipeline entry point (crowdmap.ReconstructDelta);
	// a field so tests can substitute a stub. Each building keeps a
	// DeltaState across cycles, so a new upload costs only its own decode,
	// extraction and pair comparisons instead of a full rebuild.
	reconstruct func(ctx context.Context, sources []crowdmap.CaptureSource, cfg crowdmap.Config, state *crowdmap.DeltaState) (*crowdmap.Result, error)
	// rebuildEvery forces a periodic full rebuild per building as a
	// correctness backstop (0 = never).
	rebuildEvery int
	// maps is the read tier and the one plan store: each completed
	// reconstruction is published through it, and its plan records name
	// the corpus each building's served plan was built from.
	maps *mapserve.Service
	// keep integrity-envelopes the processor's own persisted document (the
	// pair-cache export) and verifies everything it reads back; created by
	// start, after obs is wired.
	keep *integrity.Keeper
	// scrubPace throttles the background scrubber between documents so a
	// scrub pass never monopolizes the store lock (0 = no pause).
	scrubPace time.Duration

	mu sync.Mutex
	// deltaStates holds each building's memoized stage artifacts, in
	// memory only. Guarded by mu; the per-building scheduler never runs
	// two jobs for one building concurrently, so each state sees serial
	// runs.
	deltaStates map[string]*crowdmap.DeltaState
	// failures counts, per capture, how many reconstruction attempts it has
	// made fail; at maxCaptureFailures the capture is dead-lettered. A
	// successful cycle that includes a capture resets its count.
	failures map[string]int
	// meta caches per-capture metadata by store key. The commit hook
	// records an upload's from the server's own decode; the scan decodes
	// only archives it has no current metadata for.
	meta map[string]captureMeta
	// metaComplete reports that meta covers every capture the store held
	// when the processor was made: true from the start over an empty
	// store, else from the end of the first refreshMeta. Until then the
	// commit hook records metadata but marks nothing, since a building's
	// corpus would still miss the captures the startup scan has not read;
	// that scan marks the building instead.
	metaComplete bool
}

// captureMeta is what the processor knows about a stored capture without
// decoding it again: its building and corpus entry (declared ID and
// content fingerprint), valid while the store's digest of the archive
// (store.Sum) is still hash.
type captureMeta struct {
	hash     string
	building string
	entry    crowdmap.CorpusEntry
}

func newProcessor(st *store.Store, maps *mapserve.Service, hypotheses, workers int) *processor {
	qp := crowdmap.DefaultQualityParams()
	return &processor{
		st:           st,
		maps:         maps,
		hypotheses:   hypotheses,
		workers:      workers,
		quality:      &qp,
		cache:        crowdmap.NewPairCache(0),
		failures:     make(map[string]int),
		meta:         make(map[string]captureMeta),
		metaComplete: st.Len(server.CollCaptures) == 0,
		deltaStates:  make(map[string]*crowdmap.DeltaState),
		reconstruct:  crowdmap.ReconstructDelta,
	}
}

// start sweeps legacy documents and brings up the per-building scheduler
// with the given worker count. Call after obs/journal are set and before
// the first scan.
func (p *processor) start(buildingWorkers int) error {
	p.sweepLegacy()
	s, err := sched.New(buildingWorkers, p.runBuilding,
		sched.WithObs(p.obs),
		sched.WithResultFunc(func(building string, err error) {
			if err != nil && !errors.Is(err, context.Canceled) {
				log.Printf("job %s: %v", building, err)
			}
		}))
	if err != nil {
		return err
	}
	p.sched = s
	p.keep = integrity.NewKeeper(p.st, p.obs)
	return nil
}

// schedule puts the processor's periodic work on q, under q's retry
// policy: the reconciliation scan every interval, plus one at once, so a
// restarted daemon builds acked but unbuilt uploads without waiting an
// interval; then, when scrubInterval is positive, the integrity scrub
// every scrubInterval, plus one pass after that first scan. The returned
// func stops the periodic jobs.
func (p *processor) schedule(q *queue.Scheduler, interval, scrubInterval time.Duration) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for _, s := range stops {
			s()
		}
	}
	add := func(id string, run func(context.Context) error, every time.Duration) error {
		j := q.RetryJob(queue.Job{ID: id, Run: run}, queue.DefaultRetryPolicy())
		s, err := q.Every(every, j)
		if err != nil {
			return err
		}
		stops = append(stops, s)
		if err := q.Submit(j); err != nil {
			log.Printf("startup %s: %v", id, err)
		}
		return nil
	}
	err = add("scan", p.scan, interval)
	if err == nil && scrubInterval > 0 {
		err = add("scrub", p.scrub, scrubInterval)
	}
	if err != nil {
		stop()
		return nil, err
	}
	return stop, nil
}

// legacyPlans is the collection of SVG plan documents older daemons kept
// beside the read tier.
const legacyPlans = "plans"

// sweepLegacy deletes what older daemons stored and nothing reads any
// more: SVG plan documents, plan commit markers (state/planfp/*), and the
// journal records that only marked progress (key-frame, skeleton and
// plan stages, and per-capture tracks). The pairs records stay: a resumed
// run reloads their payload.
func (p *processor) sweepLegacy() {
	var doomed [][2]string
	for _, k := range p.st.Keys(legacyPlans) {
		doomed = append(doomed, [2]string{legacyPlans, k})
	}
	for _, k := range p.st.Keys(collState) {
		if strings.HasPrefix(k, "planfp/") {
			doomed = append(doomed, [2]string{collState, k})
		}
	}
	for _, k := range p.st.Keys(pipeline.CheckpointColl) {
		switch _, stage, _ := strings.Cut(k, "/"); {
		case stage == crowdmap.StageKeyframes, stage == "skeleton", stage == "plan", strings.HasPrefix(stage, "track/"):
			doomed = append(doomed, [2]string{pipeline.CheckpointColl, k})
		}
	}
	for _, d := range doomed {
		if err := p.st.Delete(d[0], d[1]); err != nil {
			log.Printf("legacy sweep: %s/%s: %v", d[0], d[1], err)
		}
	}
	if len(doomed) > 0 {
		log.Printf("legacy sweep: dropped %d documents older daemons kept beside the read tier", len(doomed))
	}
}

// loadPairCache warms the cache from the previous process's exported
// dump. Call after start (the integrity keeper must exist). A corrupt
// dump — bad envelope or JSON the cache rejects — is quarantined and the
// cache starts cold: every pair decision is recomputable.
func (p *processor) loadPairCache() {
	data, ok, err := p.keep.Get(collState, statePairCache)
	if err != nil {
		p.obs.Counter("paircache.load.corrupt").Inc()
		log.Printf("pair cache load: %v (starting cold)", err)
		return
	}
	if !ok {
		return
	}
	if err := p.cache.ImportJSON(data); err != nil {
		p.keep.Quarantine(collState, statePairCache)
		p.obs.Counter("paircache.load.corrupt").Inc()
		log.Printf("pair cache load: %v (starting cold)", err)
		return
	}
	log.Printf("pair cache: %d decisions loaded", p.cache.Len())
}

// savePairCache checkpoints the cache through the store (and hence the
// WAL, when one backs it), under an integrity envelope.
func (p *processor) savePairCache() {
	data, err := p.cache.ExportJSON()
	if err != nil {
		log.Printf("pair cache export: %v", err)
		return
	}
	if err := p.keep.Put(collState, statePairCache, data); err != nil {
		log.Printf("pair cache save: %v", err)
	}
}

// quarantine moves a poison capture to the dead-letter collection so the
// rest of the corpus can proceed without it. Caller holds p.mu.
func (p *processor) quarantineLocked(id, cause string) {
	if data, ok := p.st.Get(server.CollCaptures, id); ok {
		if err := p.st.Put(collDeadLetter, id, data); err != nil {
			log.Printf("dead-letter %s: %v", id, err)
			return
		}
		if err := p.st.Delete(server.CollCaptures, id); err != nil {
			log.Printf("dead-letter %s: %v", id, err)
			return
		}
	}
	delete(p.failures, id)
	delete(p.meta, id)
	p.obs.Counter("captures.deadlettered").Inc()
	log.Printf("capture %s dead-lettered: %s", id, cause)
}

// noteFailure charges one reconstruction failure to a capture and
// quarantines it at the threshold. Returns true when the capture was
// quarantined.
func (p *processor) noteFailure(id string, cause error) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures[id]++
	if p.failures[id] >= maxCaptureFailures {
		p.quarantineLocked(id, fmt.Sprintf("%d failures: %v", maxCaptureFailures, cause))
		return true
	}
	return false
}

// isTransient reports whether a reconstruction error came from
// cancellation rather than the data: a SIGTERM mid-extract or a
// per-attempt retry deadline wraps context.Canceled/DeadlineExceeded
// (possibly inside a CaptureError), and charging those to a capture
// would dead-letter healthy data after three shutdowns.
func isTransient(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// scan is the reconciliation backstop: it refreshes the capture
// metadata, groups the captures into building corpora and marks every
// building whose served plan was not built from its current corpus.
// Uploads through the server are marked at commit (stored); the scan
// covers everything else: a dead-lettered capture, a publish or job that
// failed, a record written before records named their corpus, read-tier
// rot that a verified read or the scrubber quarantined, and the store a
// restarted daemon recovered.
func (p *processor) scan(ctx context.Context) error {
	if err := p.refreshMeta(ctx, p.st.Keys(server.CollCaptures)); err != nil {
		return err
	}
	corpora := p.corpora(nil)
	for building, c := range corpora {
		p.markIfStale(building, c)
	}
	p.obs.Gauge("sched.buildings.tracked").Set(float64(len(corpora)))
	if p.logMetrics && p.obs != nil {
		if data, err := json.Marshal(p.obs.Snapshot()); err == nil {
			log.Printf("metrics: %s", data)
		}
	}
	return nil
}

// markIfStale marks a building on the scheduler when its corpus has at
// least minCaptures captures and its served plan was not built from it.
// The scan and the commit hook share this rule. It takes no processor
// lock.
func (p *processor) markIfStale(building string, c corpus) {
	if len(c.keys) < minCaptures {
		return
	}
	if fp := crowdmap.CorpusFingerprintOf(c.entries); !p.maps.Current(building, fp) {
		p.sched.Mark(building, fp)
	}
}

// stored is the server's upload commit hook (server.WithOnStored): it
// records the capture's metadata from the server's own decode, keyed by
// the digest of the stored bytes, and marks the capture's building, so
// its job starts without waiting for a scan (see metaComplete for the
// one wait). It runs on the request goroutine before the 201: one sha256
// and one fingerprint.
func (p *processor) stored(key string, raw []byte, c *crowdmap.Capture) {
	sum := sha256.Sum256(raw)
	m := captureMeta{hash: hex.EncodeToString(sum[:]), building: c.Geo.Building,
		entry: crowdmap.CorpusEntry{ID: c.ID, Fingerprint: c.Fingerprint()}}
	p.mu.Lock()
	p.meta[key] = m
	complete := p.metaComplete
	p.mu.Unlock()
	if complete {
		p.markIfStale(m.building, p.corpora(nil)[m.building])
	}
}

// refreshMeta brings the capture metadata up to date with the store,
// whose capture keys were listed as keys. It compares each archive's
// store digest with its metadata and reads and decodes only the archives
// that changed, so a steady-state scan copies and decodes nothing. The
// commit hook may record an upload's metadata meanwhile: refreshMeta
// neither overwrites metadata that changed since it read it nor forgets
// a key the listing predates while the store still holds it.
func (p *processor) refreshMeta(ctx context.Context, keys []string) error {
	live := make(map[string]bool, len(keys)) // listed key → metadata current
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return err
		}
		live[k] = false
		hash, ok := p.st.Sum(server.CollCaptures, k)
		if !ok {
			continue
		}
		p.mu.Lock()
		m, known := p.meta[k]
		p.mu.Unlock()
		if !known || m.hash != hash {
			data, ok := p.st.Get(server.CollCaptures, k)
			if !ok {
				continue
			}
			// Hash what is decoded: the archive may have changed again
			// since Sum.
			sum := sha256.Sum256(data)
			hash = hex.EncodeToString(sum[:])
			c, err := server.DecodeCapture(data)
			if err != nil {
				// An archive that passed upload validation but no longer
				// decodes is poison too; count it toward quarantine instead
				// of skipping it silently forever.
				if !p.noteFailure(k, err) {
					log.Printf("decode %s: %v (skipping)", k, err)
				}
				continue
			}
			read := m
			m = captureMeta{hash: hash, building: c.Geo.Building,
				entry: crowdmap.CorpusEntry{ID: c.ID, Fingerprint: c.Fingerprint()}}
			p.mu.Lock()
			if cur, ok := p.meta[k]; ok == known && cur == read {
				p.meta[k] = m
			}
			p.mu.Unlock()
		}
		live[k] = true
	}
	// Forget the metadata of captures deleted or no longer decodable, so
	// the map tracks the store.
	p.mu.Lock()
	for k := range p.meta {
		if current, listed := live[k]; !current && (listed || !p.st.Has(server.CollCaptures, k)) {
			delete(p.meta, k)
		}
	}
	p.metaComplete = true
	p.mu.Unlock()
	return nil
}

// corpus is one building's capture corpus: store keys and their corpus
// entries, index-aligned.
type corpus struct {
	keys    []string
	entries []crowdmap.CorpusEntry
}

// corpora groups the captures with metadata into building corpora, in
// store-key order. The first capture to declare an ID joins its
// building's corpus; a later one declaring the same ID is left out and
// reported to dup, when non-nil. Two corpus members with one identity
// would make failure attribution ambiguous (and would let a hostile
// upload get a victim's capture quarantined in its place). The scan and
// the job both choose a corpus here, so the fingerprint the scan marks is
// the corpus the job reconstructs.
func (p *processor) corpora(dup func(building, key, prev, id string)) map[string]corpus {
	out := make(map[string]corpus)
	owner := make(map[[2]string]string) // (building, declared ID) → store key
	for _, k := range p.st.Keys(server.CollCaptures) {
		p.mu.Lock()
		m, ok := p.meta[k]
		p.mu.Unlock()
		if !ok {
			continue
		}
		id := [2]string{m.building, m.entry.ID}
		if prev, taken := owner[id]; taken {
			if dup != nil {
				dup(m.building, k, prev, m.entry.ID)
			}
			continue
		}
		owner[id] = k
		c := out[m.building]
		c.keys = append(c.keys, k)
		c.entries = append(c.entries, m.entry)
		out[m.building] = c
	}
	return out
}

// scrub is one background integrity pass: it walks every persisted
// derived artifact — checkpoints, processor state, and the read tier's
// records and indexes — verifying envelopes and codecs. A corrupt
// document is quarantined by the verification itself; scrub then runs a
// scan, which finds the owning buildings no longer current and redrives
// them. Paced by scrubPace so a pass never monopolizes the store.
func (p *processor) scrub(ctx context.Context) error {
	start := time.Now()
	docs, corrupt := 0, 0
	for _, coll := range []string{pipeline.CheckpointColl, collState} {
		for _, key := range p.st.Keys(coll) {
			if err := ctx.Err(); err != nil {
				return err
			}
			docs++
			if _, _, err := p.keep.Get(coll, key); err != nil {
				corrupt++
				log.Printf("scrub: %s/%s corrupt: %v", coll, key, err)
			}
			p.pace()
		}
	}
	for _, b := range p.maps.Buildings() {
		if err := ctx.Err(); err != nil {
			return err
		}
		docs++
		if published, err := p.maps.Verify(b); published && err != nil {
			corrupt++
			log.Printf("scrub: read tier %s corrupt: %v", b, err)
		}
		p.pace()
	}
	p.obs.Counter("scrub.passes").Inc()
	p.obs.Counter("scrub.docs").Add(int64(docs))
	p.obs.Counter("scrub.corrupt").Add(int64(corrupt))
	p.obs.Histogram("scrub.seconds").Observe(time.Since(start).Seconds())
	if corrupt > 0 {
		log.Printf("scrub: %d/%d documents corrupt and quarantined, scheduling repair", corrupt, docs)
		// Redrive immediately instead of waiting for the next scan tick.
		return p.scan(ctx)
	}
	return nil
}

// pace sleeps the scrub throttle, if one is configured.
func (p *processor) pace() {
	if p.scrubPace > 0 {
		time.Sleep(p.scrubPace)
	}
}

// runOnce is the synchronous test/tooling entry point: one scan, then
// wait for every enqueued building job to finish.
func (p *processor) runOnce(ctx context.Context) error {
	if err := p.scan(ctx); err != nil {
		return err
	}
	return p.sched.Wait(ctx)
}

// runBuilding is the scheduler's job body: reconstruct one building's
// corpus, quarantining poison captures and degrading to the remaining
// corpus rather than failing the job. A building already current (a Mark
// that raced the job that made it so) costs no decode.
func (p *processor) runBuilding(ctx context.Context, building string) error {
	c := p.corpora(func(b, key, prev, id string) {
		if b == building {
			log.Printf("%s: capture %s declares the same ID %q as %s, skipping it", building, key, id, prev)
		}
	})[building]
	if p.maps.Current(building, crowdmap.CorpusFingerprintOf(c.entries)) {
		log.Printf("%s: plan already current, skipping", building)
		return nil
	}
	sources, keyByID := p.sources(c)
	return p.reconstructBuilding(ctx, building, sources, keyByID)
}

// sources makes one pipeline source per corpus member; decoding waits
// for the pipeline, which loads only what its delta memo lacks. Each
// loader reads and decodes its own archive, counted on
// crowdmapd.captures.decoded. An archive that changed since its metadata
// was read no longer matches its entry, which fails the run without
// charging the capture; the change is marked or scanned anew. The second
// return value maps each capture's declared ID (from meta.json) to the
// store key it was uploaded under: the pipeline reports failures and
// exclusions by declared ID, but quarantine must move the store
// document, and nothing forces a client to upload an archive under the
// ID its metadata declares.
func (p *processor) sources(c corpus) ([]crowdmap.CaptureSource, map[string]string) {
	out := make([]crowdmap.CaptureSource, len(c.keys))
	keyByID := make(map[string]string, len(c.keys))
	for i, k := range c.keys {
		keyByID[c.entries[i].ID] = k
		out[i] = crowdmap.CaptureSource{Entry: c.entries[i], Load: func(context.Context) (*crowdmap.Capture, error) {
			data, ok := p.st.Get(server.CollCaptures, k)
			if !ok {
				return nil, fmt.Errorf("capture %s is no longer stored", k)
			}
			p.obs.Counter("crowdmapd.captures.decoded").Inc()
			return server.DecodeCapture(data)
		}}
	}
	return out, keyByID
}

// storeKey translates a capture's declared ID into the store key its
// document lives under, falling back to the ID itself when the mapping
// has no entry (the usual case where clients upload under the declared
// ID, and the test path that seeds captures directly).
func storeKey(keyByID map[string]string, id string) string {
	if k, ok := keyByID[id]; ok {
		return k
	}
	return id
}

// deltaState returns (creating on first use) the building's in-memory
// delta-reconstruction state.
func (p *processor) deltaState(building string) *crowdmap.DeltaState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.deltaStates[building]
	if !ok {
		st = crowdmap.NewDeltaState()
		p.deltaStates[building] = st
	}
	return st
}

// dropDeltaStates releases every building's memo; the next job of each
// building would be a cold build. The daemon calls it at shutdown, once
// the scheduler is closed.
func (p *processor) dropDeltaStates() {
	p.mu.Lock()
	clear(p.deltaStates)
	p.mu.Unlock()
}

// reconstructBuilding runs one building's corpus through the pipeline,
// over the building's in-memory delta state, and publishes the result.
// On a poison-capture failure it quarantines the capture and immediately
// retries with the rest; on cancellation it returns without charging any
// capture; a publish error fails the job, and the building's record still
// names the old corpus, so the next scan redrives it. On success it
// resets the failure count of every capture the cycle included and
// checkpoints the pair cache.
func (p *processor) reconstructBuilding(ctx context.Context, building string, sources []crowdmap.CaptureSource, keyByID map[string]string) error {
	state := p.deltaState(building)
	for {
		if len(sources) < minCaptures {
			log.Printf("%s: only %d captures, waiting for more", building, len(sources))
			return nil
		}
		cfg := crowdmap.DefaultConfig()
		cfg.Layout.Hypotheses = p.hypotheses
		cfg.Workers = p.workers
		cfg.Metrics = p.obs
		cfg.PairCache = p.cache
		cfg.JobID = building
		cfg.Checkpoints = p.journal
		cfg.Quality = p.quality
		cfg.Mode = p.mode
		cfg.StageBudget = p.stageBudget
		// A loaded capture feeds only extraction: free its pixels as soon
		// as its track is built.
		cfg.ReleaseFrames = true
		// The shared daemon pair cache is passed as cfg.PairCache above, so
		// a delta-state reset (config change or rebuild backstop) never
		// flushes it — it has its own signature-based invalidation.
		cfg.DeltaRebuildEvery = p.rebuildEvery
		start := time.Now()
		res, err := p.reconstruct(ctx, sources, cfg, state)
		if err != nil {
			if isTransient(err) {
				// Shutdown or a per-attempt deadline, not the data's fault:
				// no capture gains a failure count, the journal already holds
				// whatever stages completed, and the next scan redrives the
				// job (or a restarted daemon resumes it).
				log.Printf("%s: reconstruction interrupted: %v", building, err)
				return fmt.Errorf("%s: %w", building, err)
			}
			var ce *crowdmap.CaptureError
			if errors.As(err, &ce) {
				if p.noteFailure(storeKey(keyByID, ce.CaptureID), err) {
					// Graceful degradation: drop the poison capture and
					// immediately retry this building with the rest. Build a
					// fresh slice — filtering in place would alias the array
					// a caller may still hold.
					kept := make([]crowdmap.CaptureSource, 0, len(sources)-1)
					for _, s := range sources {
						if s.Entry.ID != ce.CaptureID {
							kept = append(kept, s)
						}
					}
					sources = kept
					continue
				}
			}
			log.Printf("%s: reconstruction failed: %v", building, err)
			return fmt.Errorf("%s: %w", building, err)
		}
		// Publish to the read tier: versioned vector/PNG/SVG artifacts plus
		// the localization index, swapped atomically so concurrent
		// plan/locate readers never see a partial version, and a record
		// naming res.Corpus. An unchanged plan keeps its version (and
		// clients' 304s).
		v, err := p.maps.Publish(building, res)
		if err != nil {
			p.obs.Counter("mapserve.publish.errors").Inc()
			return fmt.Errorf("%s: publish: %w", building, err)
		}
		log.Printf("%s: serving plan version %d (etag %.12s)", building, v.Version, v.ETag)
		// Degraded-mode aftermath: captures the pipeline excluded (gate
		// rejection, recovered panic) are proven poison — dead-letter them
		// now, without waiting for three strikes. res.Corpus leaves them
		// out, so once they leave the store the building reads current and
		// the job is not redriven over the same exclusions.
		excluded := make(map[string]bool, len(res.Excluded))
		if len(res.Excluded) > 0 {
			p.mu.Lock()
			for _, ex := range res.Excluded {
				excluded[ex.CaptureID] = true
				p.quarantineLocked(storeKey(keyByID, ex.CaptureID),
					fmt.Sprintf("excluded at %s stage: %s",
						ex.Stage, strings.Join(ex.Reasons, ", ")))
			}
			p.mu.Unlock()
			log.Printf("%s: degraded reconstruction: %d/%d captures used, %d excluded",
				building, res.Coverage.Used, res.Coverage.Input, res.Coverage.Excluded)
		}
		// A capture that took part in a successful cycle is evidently not
		// poison: reset its failure count so unrelated future failures start
		// from zero.
		p.mu.Lock()
		for _, s := range sources {
			if !excluded[s.Entry.ID] {
				delete(p.failures, storeKey(keyByID, s.Entry.ID))
			}
		}
		p.mu.Unlock()
		p.savePairCache()
		log.Printf("%s: plan updated (%d rooms, %d/%d tracks placed, %s)",
			building, len(res.Plan.Rooms), len(res.Aggregation.Offsets), len(res.Tracks),
			time.Since(start).Round(time.Millisecond))
		return nil
	}
}
