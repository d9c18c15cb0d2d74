package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"crowdmap"
	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/pipeline"
	"crowdmap/internal/cloud/sched"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
)

// Store collections owned by the processor (the server owns captures and
// plans; see server.CollCaptures / server.CollPlans).
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
	// statePlanFp prefixes the collState key of a building's plan commit
	// marker: the corpus fingerprint the stored plan and published read-tier
	// version were built from, written only after both landed.
	statePlanFp = "planfp/"
)

// maxCaptureFailures is how many failed reconstruction attempts a single
// capture may cause before it is quarantined to the dead-letter
// collection. Failures caused by cancellation (shutdown, per-attempt
// deadlines) never count: only deterministic pipeline failures do.
const maxCaptureFailures = 3

// processor turns stored captures into floor plans. Each scan groups the
// capture corpus by building and computes a per-building corpus
// fingerprint; buildings whose fingerprint changed since their last
// successful reconstruction are enqueued on the per-building scheduler,
// which runs them concurrently on a bounded worker pool (never two jobs
// for the same building at once). This replaces the old
// count-of-captures cycle check, which skipped reconstruction whenever a
// dead-lettered capture and a new upload left the count unchanged.
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
	// journal checkpoints per-stage completion; a building whose plan stage
	// already completed over the same corpus is skipped entirely.
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
	// DeltaState across cycles, so a new upload costs only its own
	// extraction and pair comparisons instead of a full rebuild.
	reconstruct func(ctx context.Context, captures []*crowdmap.Capture, cfg crowdmap.Config, state *crowdmap.DeltaState) (*crowdmap.Result, error)
	// rebuildEvery forces a periodic full rebuild per building as a
	// correctness backstop (0 = never).
	rebuildEvery int
	// maps, when non-nil, receives each completed reconstruction through
	// Publish: the read tier's versioned plan + localization index swap.
	// Publish failures are logged and counted, never failed — the SVG plan
	// is already stored, and the read tier keeps serving the previous
	// complete version.
	maps *mapserve.Service
	// keep integrity-envelopes the processor's own persisted documents
	// (SVG plans, the pair-cache export) and verifies everything it reads
	// back; created by start, after obs is wired.
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
	// meta caches per-capture scan metadata (building, raw-content hash) so
	// the periodic scan decodes each archive once, not every tick.
	meta map[string]captureMeta
}

// captureMeta is what the scan needs to know about a stored capture
// without re-decoding it: which building it belongs to, keyed by the
// hash of its raw archive bytes.
type captureMeta struct {
	hash     string
	building string
}

func newProcessor(st *store.Store, hypotheses, workers int) *processor {
	qp := crowdmap.DefaultQualityParams()
	return &processor{
		st:          st,
		hypotheses:  hypotheses,
		workers:     workers,
		quality:     &qp,
		cache:       crowdmap.NewPairCache(0),
		failures:    make(map[string]int),
		meta:        make(map[string]captureMeta),
		deltaStates: make(map[string]*crowdmap.DeltaState),
		reconstruct: crowdmap.ReconstructDelta,
	}
}

// start brings up the per-building scheduler with the given worker
// count. Call after obs/journal are set and before the first scan.
func (p *processor) start(buildingWorkers int) error {
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

// scan is the periodic job: it walks the capture collection, groups
// captures by building, computes each building's corpus fingerprint from
// the raw archive hashes, and marks dirty buildings on the scheduler.
// Decode work is memoized per raw-content hash, so a steady-state scan
// hashes bytes but decodes nothing.
func (p *processor) scan(ctx context.Context) error {
	keys := p.st.Keys(server.CollCaptures)
	live := make(map[string]bool, len(keys))
	byBuilding := make(map[string][]string)
	for _, k := range keys {
		if err := ctx.Err(); err != nil {
			return err
		}
		data, ok := p.st.Get(server.CollCaptures, k)
		if !ok {
			continue
		}
		sum := sha256.Sum256(data)
		hash := hex.EncodeToString(sum[:])
		p.mu.Lock()
		m, known := p.meta[k]
		p.mu.Unlock()
		if !known || m.hash != hash {
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
			m = captureMeta{hash: hash, building: c.Geo.Building}
			p.mu.Lock()
			p.meta[k] = m
			p.mu.Unlock()
		}
		live[k] = true
		byBuilding[m.building] = append(byBuilding[m.building], k+":"+hash)
	}
	// Forget metadata of deleted captures so the map tracks the store.
	p.mu.Lock()
	for k := range p.meta {
		if !live[k] {
			delete(p.meta, k)
		}
	}
	p.mu.Unlock()
	for building, entries := range byBuilding {
		// Fold the persisted artifacts' health into the fingerprint: losing
		// or corrupting the plan or a read-tier document changes the marker,
		// so the scheduler redrives the building and the job recomputes the
		// lost artifact — self-healing with zero scheduler changes.
		entries = append(entries, "health:"+p.healthMarker(building))
		p.sched.Mark(building, corpusFingerprint(entries))
	}
	p.obs.Gauge("sched.buildings.tracked").Set(float64(len(byBuilding)))
	if p.logMetrics && p.obs != nil {
		if data, err := json.Marshal(p.obs.Snapshot()); err == nil {
			log.Printf("metrics: %s", data)
		}
	}
	return nil
}

// corpusFingerprint hashes a building's sorted "captureID:rawHash"
// entries into the dirty-tracking fingerprint. It deliberately uses raw
// archive bytes (not decoded content) so the scan stays cheap; the
// checkpoint journal inside the job uses crowdmap.CorpusFingerprint over
// decoded captures, which serves the same invalidation role at the
// stage level.
func corpusFingerprint(entries []string) string {
	sort.Strings(entries)
	h := sha256.New()
	for _, e := range entries {
		h.Write([]byte(e))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// planIntact reports whether the building's SVG plan document is present
// under a valid integrity envelope. A corrupt document is quarantined by
// the check (the read path would have done the same) and reported as
// missing, so the caller re-renders.
func (p *processor) planIntact(building string) bool {
	_, ok, err := p.keep.Get(server.CollPlans, building)
	return err == nil && ok
}

// planState reports whether the plan document AND its commit marker
// verify, and returns the corpus fingerprint the plan was committed
// under. The pipeline journals the plan stage before the processor
// stores the SVG, so "journal done" alone cannot distinguish a committed
// plan from a crash that left the previous corpus's (intact, stale)
// plan behind — the marker, written last, can.
func (p *processor) planState(building string) (intact bool, fp string) {
	if !p.planIntact(building) {
		return false, ""
	}
	data, ok, err := p.keep.Get(collState, statePlanFp+building)
	if err != nil || !ok {
		return false, ""
	}
	return true, string(data)
}

// serveHealthy reports whether the read tier's persisted artifacts for
// the building verify (or the read tier is off). "Never published" counts
// as unhealthy so a reconstruction run publishes it.
func (p *processor) serveHealthy(building string) bool {
	if p.maps == nil {
		return true
	}
	published, err := p.maps.Verify(building)
	return published && err == nil
}

// healthMarker summarizes the building's persisted-artifact health for
// the scan fingerprint. For the read tier it checks presence only, and
// hashes nothing: rot is found by the scrubber and by every verified
// read, both of which quarantine it, and quarantine removes the document
// and flips the marker. The job then runs the full Verify (serveHealthy).
func (p *processor) healthMarker(building string) string {
	serve := "off"
	if p.maps != nil {
		switch published, present := p.maps.Stored(building); {
		case present:
			serve = "ok"
		case published:
			serve = "missing"
		default:
			serve = "unpublished"
		}
	}
	// The marker carries the committed corpus fingerprint (not just a
	// bool): a stale-but-intact plan left by a crash between the journal
	// write and the plan commit changes the marker and redrives the job.
	plan := "bad"
	if intact, fp := p.planState(building); intact {
		plan = fp
	}
	return fmt.Sprintf("plan:%s;serve:%s", plan, serve)
}

// scrub is one background integrity pass: it walks every persisted
// derived artifact — checkpoints, processor state, SVG plans, and the
// read tier's records and indexes — verifying envelopes and codecs. A
// corrupt document is quarantined by the verification itself; scrub then
// runs a scan so the changed health markers redrive the owning buildings
// and the artifacts are recomputed. Paced by scrubPace so a pass never
// monopolizes the store.
func (p *processor) scrub(ctx context.Context) error {
	start := time.Now()
	docs, corrupt := 0, 0
	for _, coll := range []string{pipeline.CheckpointColl, collState, server.CollPlans} {
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
	if p.maps != nil {
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

// buildingCaptures decodes the current corpus of one building from the
// store. Captures whose cached metadata names another building are
// skipped without decoding. The second return value maps each capture's
// declared ID (from meta.json) to the store key it was uploaded under:
// the pipeline reports failures and exclusions by declared ID, but
// quarantine must move the store document, and nothing forces a client
// to upload an archive under the ID its metadata declares. A later
// document duplicating an earlier one's declared ID is skipped — two
// corpus members with one identity would make failure attribution
// ambiguous (and would let a hostile upload get a victim's capture
// quarantined in its place).
func (p *processor) buildingCaptures(ctx context.Context, building string) ([]*crowdmap.Capture, map[string]string, error) {
	var out []*crowdmap.Capture
	keyByID := make(map[string]string)
	for _, k := range p.st.Keys(server.CollCaptures) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		p.mu.Lock()
		m, known := p.meta[k]
		p.mu.Unlock()
		if known && m.building != building {
			continue
		}
		data, ok := p.st.Get(server.CollCaptures, k)
		if !ok {
			continue
		}
		c, err := server.DecodeCapture(data)
		if err != nil {
			// The scan owns decode-poison accounting; here we just exclude it
			// from the job.
			continue
		}
		if c.Geo.Building == building {
			if prev, dup := keyByID[c.ID]; dup {
				log.Printf("%s: capture %s declares the same ID %q as %s, skipping it",
					building, k, c.ID, prev)
				continue
			}
			keyByID[c.ID] = k
			out = append(out, c)
		}
	}
	return out, keyByID, nil
}

// runBuilding is the scheduler's job body: reconstruct one building's
// corpus, quarantining poison captures and degrading to the remaining
// corpus rather than failing the job.
func (p *processor) runBuilding(ctx context.Context, building string) error {
	captures, keyByID, err := p.buildingCaptures(ctx, building)
	if err != nil {
		return err
	}
	return p.reconstructBuilding(ctx, building, captures, keyByID)
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
// delta-reconstruction state. Creating it also drops the per-capture
// "track/<fingerprint>" journal records that daemons before the
// in-memory memo wrote: nothing reads them, and they would otherwise
// stay in the WAL for good.
func (p *processor) deltaState(building string) *crowdmap.DeltaState {
	p.mu.Lock()
	st, ok := p.deltaStates[building]
	if !ok {
		st = crowdmap.NewDeltaState()
		p.deltaStates[building] = st
	}
	p.mu.Unlock()
	if !ok {
		for _, stage := range p.journal.Stages(building) {
			if strings.HasPrefix(stage, "track/") {
				_ = p.journal.Drop(building, stage)
			}
		}
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
// over the building's in-memory delta state. On a poison-capture failure
// it quarantines the capture and immediately retries with the rest; on
// cancellation it returns without charging any capture; on success it
// resets the failure count of every capture the cycle included and
// checkpoints the pair cache.
func (p *processor) reconstructBuilding(ctx context.Context, building string, captures []*crowdmap.Capture, keyByID map[string]string) error {
	state := p.deltaState(building)
	for {
		if len(captures) < 3 {
			log.Printf("%s: only %d captures, waiting for more", building, len(captures))
			return nil
		}
		fp := crowdmap.CorpusFingerprint(captures)
		planIntact, planFp := p.planState(building)
		planOK := planIntact && planFp == fp
		serveOK := p.serveHealthy(building)
		journalDone := p.journal.Completed(building, crowdmap.StagePlan, fp)
		if planOK && serveOK && journalDone {
			// The plan stage already completed over exactly this corpus (a
			// restart, or a fresh scheduler over an old store) and every
			// persisted artifact verifies: nothing to do.
			log.Printf("%s: plan already reconstructed for this corpus, skipping", building)
			return nil
		}
		// A completed journal with a missing/corrupt plan or read-tier
		// artifact means this run is a repair, not new work.
		repairRun := journalDone && (!planOK || !serveOK)
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
		// The shared daemon pair cache is passed as cfg.PairCache above, so
		// a delta-state reset (config change or rebuild backstop) never
		// flushes it — it has its own signature-based invalidation.
		cfg.DeltaRebuildEvery = p.rebuildEvery
		start := time.Now()
		res, err := p.reconstruct(ctx, captures, cfg, state)
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
					kept := make([]*crowdmap.Capture, 0, len(captures)-1)
					for _, c := range captures {
						if c.ID != ce.CaptureID {
							kept = append(kept, c)
						}
					}
					captures = kept
					continue
				}
			}
			log.Printf("%s: reconstruction failed: %v", building, err)
			return fmt.Errorf("%s: %w", building, err)
		}
		svg, err := res.Plan.RenderSVG()
		if err != nil {
			log.Printf("%s: render: %v", building, err)
			return fmt.Errorf("%s: render: %w", building, err)
		}
		if err := p.keep.Put(server.CollPlans, building, svg); err != nil {
			log.Printf("%s: store plan: %v", building, err)
			return fmt.Errorf("%s: store plan: %w", building, err)
		}
		if repairRun {
			if !planOK {
				p.obs.Counter("integrity.repaired").Inc()
			}
			p.obs.Counter("processor.plan.repaired").Inc()
			log.Printf("%s: repaired persisted artifacts (plan intact=%t, serve intact=%t)",
				building, planOK, serveOK)
		}
		// Publish to the read tier after the SVG store succeeds: versioned
		// vector/PNG artifacts plus the localization index, swapped
		// atomically so concurrent plan/locate readers never see a partial
		// version. An unchanged plan keeps its version (and clients' 304s).
		published := true
		if p.maps != nil {
			if v, err := p.maps.Publish(building, res); err != nil {
				published = false
				p.obs.Counter("mapserve.publish.errors").Inc()
				log.Printf("%s: mapserve publish: %v", building, err)
			} else {
				log.Printf("%s: serving plan version %d (etag %.12s)", building, v.Version, v.ETag)
			}
		}
		// The commit marker goes last: it asserts plan AND read tier were
		// built from this corpus, so a crash anywhere above leaves a stale
		// marker and the next scan redrives the build.
		if published {
			if err := p.keep.Put(collState, statePlanFp+building, []byte(fp)); err != nil {
				log.Printf("%s: store plan marker: %v", building, err)
			}
		}
		// Degraded-mode aftermath: captures the pipeline excluded (gate
		// rejection, recovered panic) are proven poison — dead-letter them
		// now, without waiting for three strikes, so the next scan's corpus
		// fingerprint matches what was actually reconstructed and the job
		// is not redriven over the same exclusions forever.
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
		for _, c := range captures {
			if !excluded[c.ID] {
				delete(p.failures, storeKey(keyByID, c.ID))
			}
		}
		p.mu.Unlock()
		p.savePairCache()
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "%s: plan updated (%d rooms, %d/%d tracks placed, %s)",
			building, len(res.Plan.Rooms), len(res.Aggregation.Offsets), len(res.Tracks),
			time.Since(start).Round(time.Millisecond))
		log.Print(buf.String())
		return nil
	}
}
