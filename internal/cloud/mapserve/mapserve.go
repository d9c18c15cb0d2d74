// Package mapserve is crowdmapd's read tier: versioned floor-plan serving
// and appearance-based localization over the reconstructed plans. The
// write path (scheduler → reconstruction) publishes each completed result
// here; readers then download the plan as vector JSON or a rendered
// occupancy-grid PNG, revalidate cheaply with ETag/If-None-Match, and
// localize a single query frame against a persisted per-building
// key-frame index — the paper's "map as a by-product" consumed as an
// online service.
//
// Versioning contract: every published plan carries a monotonically
// increasing per-building version and a content-hash ETag. Publishing a
// byte-identical reconstruction is a no-op (same version, same ETag, so
// client caches stay valid); any content change bumps the version and
// changes the ETag. The in-memory current-version pointer is swapped
// atomically only after every artifact of the new version — vector JSON,
// PNG, and the localization index — is durably stored, so a concurrent
// reader (or a locate in flight during a reconstruction) always sees the
// previous complete version, never a partially written one.
//
// Localization follows the appearance-based approach of Rivera-Rubio et
// al. (see PAPERS.md): the query frame runs through the same feature
// extractors as pipeline key-frames and is matched with the same
// hierarchical two-stage comparison (stage-1 color/shape/wavelet gate,
// stage-2 SURF mutual-nearest-neighbor similarity); the best-matching
// placed key-frame's global pose is the answer. An optional IMU snippet
// gates candidates by compass heading, mirroring the aggregation
// anchor-search gate. Indexes hold the compared features only, are
// persisted gob+gzip per building (primary features stored, derived
// structures rebuilt on decode), and live in a
// bounded LRU across buildings: Publish seeds it with the index it just
// built, and a restarted service loads each building's index lazily.
package mapserve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"crowdmap"
	"crowdmap/internal/cloud/integrity"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/mathx"
	"crowdmap/internal/obs"
	"crowdmap/internal/sensor"
)

// CollServe is the store collection holding published read-tier artifacts:
// "<building>/plan" documents (current plan record), "<building>/ver"
// documents (the persisted version floor, so versions stay monotonic even
// if the plan record itself is lost), and "<building>/index@<etag-prefix>"
// documents (localization indexes, keyed by content so a crash between
// writes can never pair a new index with an old plan or vice versa). All
// of them are stored under integrity envelopes (integrity.Wrap) and
// verified on every read.
const CollServe = "mapserve"

// DefaultIndexCacheSize bounds how many buildings' localization indexes
// stay decoded in memory at once (see Option WithIndexCacheSize).
const DefaultIndexCacheSize = 8

// DefaultMaxHeadingDiff is the locate heading gate: with an IMU snippet in
// the query, stored key-frames whose heading differs more than this are
// skipped. It mirrors aggregate.DefaultParams().MaxHeadingDiff.
var DefaultMaxHeadingDiff = mathx.Deg2Rad(30)

// ErrUnknownBuilding is returned by Plan-less lookups: the building has no
// published plan version (never reconstructed, or serving is cold and the
// store holds nothing for it).
var ErrUnknownBuilding = errors.New("mapserve: no published plan for building")

// ErrIndexUnavailable reports that a building's localization index is
// missing or corrupt on disk (quarantined, pending repair). The plan
// itself still serves; the next publish of the same reconstruction — or a
// scrub-triggered republish — rewrites the index.
var ErrIndexUnavailable = errors.New("mapserve: localization index unavailable")

// Service owns the read tier for all buildings: current plan versions,
// localization indexes, and their persistence. Safe for concurrent use;
// Publish may run concurrently with any number of Plan/Locate calls.
type Service struct {
	st  *store.Store
	reg *obs.Registry
	// kf parameterizes query feature extraction and the hierarchical
	// comparison; it must match the pipeline's extraction parameters or
	// the persisted indexes are invalidated (the params signature is part
	// of the published ETag).
	kf keyframe.Params
	// maxHeadingDiff gates locate candidates by IMU heading; ≤ 0 disables.
	maxHeadingDiff float64
	cache          *indexCache
	// keep envelopes every persisted read-tier document and verifies it on
	// read; corrupt documents are quarantined, counted, and reported as
	// missing so the write path republishes instead of serving poison.
	keep *integrity.Keeper

	mu sync.RWMutex
	// current maps building → last complete published record. Entries are
	// installed atomically after all artifacts are stored, and lazily
	// loaded from the store on first read after a restart.
	current map[string]*planRecord
}

// Option configures a Service.
type Option func(*Service)

// WithObs attaches a metrics registry (mapserve.* counters/gauges).
func WithObs(r *obs.Registry) Option { return func(s *Service) { s.reg = r } }

// WithIndexCacheSize bounds the decoded localization-index LRU (entries =
// buildings). Non-positive keeps DefaultIndexCacheSize.
func WithIndexCacheSize(n int) Option {
	return func(s *Service) {
		if n > 0 {
			s.cache = newIndexCache(n)
		}
	}
}

// WithKeyframeParams overrides the feature-extraction and comparison
// parameters used for localization queries. Use the same params the
// reconstruction pipeline runs with; the default is keyframe.DefaultParams
// (which DefaultConfig also uses).
func WithKeyframeParams(p keyframe.Params) Option {
	return func(s *Service) { s.kf = p }
}

// WithMaxHeadingDiff overrides the locate IMU heading gate, radians
// (0 disables the gate even when the query carries IMU samples).
func WithMaxHeadingDiff(d float64) Option {
	return func(s *Service) { s.maxHeadingDiff = d }
}

// New builds a read-tier service over the given document store.
func New(st *store.Store, opts ...Option) (*Service, error) {
	if st == nil {
		return nil, fmt.Errorf("mapserve: nil store")
	}
	s := &Service{
		st:             st,
		kf:             keyframe.DefaultParams(),
		maxHeadingDiff: DefaultMaxHeadingDiff,
		cache:          newIndexCache(DefaultIndexCacheSize),
		current:        make(map[string]*planRecord),
	}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = obs.New()
	}
	s.keep = integrity.NewKeeper(st, s.reg)
	return s, nil
}

// PlanVersion is the public identity of one published plan version.
type PlanVersion struct {
	Building string
	// Version increases monotonically per building, starting at 1.
	Version uint64
	// ETag is the hex content hash over every artifact of the version
	// (vector JSON geometry, PNG, localization index, and the comparison
	// parameter signature). Identical reconstructions produce identical
	// ETags.
	ETag string
}

// PlanView is a served plan version: identity plus the renderable bytes.
// The byte slices are owned by the service and must not be mutated.
type PlanView struct {
	PlanVersion
	// JSON is the vector plan document (see PlanDoc).
	JSON []byte
	// PNG is the rendered occupancy-grid raster.
	PNG []byte
}

// Publish makes a completed reconstruction the building's current served
// version: it renders the vector JSON and PNG artifacts, builds and
// persists the localization index, and — only after everything is stored —
// atomically swaps the current-version pointer. Publishing a result whose
// content hash equals the current version's is a no-op that returns the
// existing version. Safe to call concurrently with readers; never safe to
// observe half-published (readers see the old version until the swap).
func (s *Service) Publish(building string, res *crowdmap.Result) (PlanVersion, error) {
	if building == "" {
		return PlanVersion{}, fmt.Errorf("mapserve: empty building")
	}
	if res == nil || res.Plan == nil {
		return PlanVersion{}, fmt.Errorf("mapserve: publish %s: nil result or plan", building)
	}
	geo, err := renderPlanJSON(building, 0, res.Plan)
	if err != nil {
		return PlanVersion{}, fmt.Errorf("mapserve: publish %s: %w", building, err)
	}
	png, err := renderPlanPNG(res.Plan)
	if err != nil {
		return PlanVersion{}, fmt.Errorf("mapserve: publish %s: %w", building, err)
	}
	art := buildLocArtifact(res, s.kf)
	idxBytes, err := encodeLocIndex(art)
	if err != nil {
		return PlanVersion{}, fmt.Errorf("mapserve: publish %s: %w", building, err)
	}
	// Content hash over the complete artifact set. The version-0 JSON
	// rendering keeps the hash independent of the version number itself,
	// so an identical rebuild hashes identically and keeps its ETag (and
	// clients' 304s) valid.
	h := sha256.New()
	h.Write(geo)
	h.Write(png)
	h.Write(idxBytes)
	h.Write([]byte(s.kf.Signature()))
	etag := hex.EncodeToString(h.Sum(nil))

	cur, _ := s.record(building)
	repair := false
	if cur != nil && cur.ETag == etag {
		if s.storedIntact(cur) {
			s.reg.Counter("mapserve.publish.unchanged").Inc()
			return PlanVersion{Building: building, Version: cur.Version, ETag: cur.ETag}, nil
		}
		// Content is current but a persisted artifact is corrupt or missing
		// (the intactness check quarantined whatever was bad). Rewrite the
		// same version under the same ETag: a repair, not a new version, so
		// client caches stay valid.
		repair = true
	}
	version := uint64(1)
	switch {
	case repair:
		version = cur.Version
	case cur != nil:
		version = cur.Version + 1
	}
	if floor := s.versionFloor(building); !repair && version <= floor {
		// The plan record was lost or quarantined but the version-floor
		// document survived: never reuse or regress below a version a
		// client may have cached.
		version = floor + 1
	}
	finalJSON, err := renderPlanJSON(building, version, res.Plan)
	if err != nil {
		return PlanVersion{}, fmt.Errorf("mapserve: publish %s: %w", building, err)
	}
	rec := &planRecord{
		Building: building,
		Version:  version,
		ETag:     etag,
		JSON:     finalJSON,
		PNG:      png,
		IndexKey: indexKey(building, etag),
	}
	// Durability order is the commit protocol: version floor first, index
	// second, plan record last. The plan record is the commit point —
	// until it lands, readers resolve the old record, whose own
	// (content-keyed) index is untouched. A crash in between leaves an
	// orphan index document that the next successful publish of this
	// building deletes; a crash after the floor write merely burns a
	// version number.
	if err := s.putVersionFloor(building, version); err != nil {
		return PlanVersion{}, fmt.Errorf("mapserve: publish %s: store version floor: %w", building, err)
	}
	if err := s.keep.Put(CollServe, rec.IndexKey, idxBytes); err != nil {
		return PlanVersion{}, fmt.Errorf("mapserve: publish %s: store index: %w", building, err)
	}
	recBytes, err := encodePlanRecord(rec)
	if err != nil {
		return PlanVersion{}, fmt.Errorf("mapserve: publish %s: %w", building, err)
	}
	if err := s.keep.Put(CollServe, planKey(building), recBytes); err != nil {
		return PlanVersion{}, fmt.Errorf("mapserve: publish %s: store plan: %w", building, err)
	}
	// Seed the cache with the index just built (a repair overwrites its
	// entry), so no locate after the swap decodes it back from the store.
	if evicted := s.cache.put(rec.IndexKey, art.index()); evicted > 0 {
		s.reg.Counter("mapserve.index.cache.evictions").Add(int64(evicted))
	}
	// Atomic swap: from here every reader sees the new complete version.
	s.mu.Lock()
	s.current[building] = rec
	s.mu.Unlock()
	// Old-version cleanup is best-effort and happens only after the swap.
	if cur != nil && cur.IndexKey != rec.IndexKey {
		_ = s.st.Delete(CollServe, cur.IndexKey)
		s.cache.remove(cur.IndexKey)
	}
	if repair {
		s.reg.Counter("mapserve.publish.repaired").Inc()
		s.reg.Counter("integrity.repaired").Inc()
	}
	s.reg.Counter("mapserve.publishes").Inc()
	s.reg.Gauge("mapserve.plan.version").Set(float64(version))
	return PlanVersion{Building: building, Version: version, ETag: etag}, nil
}

// storedIntact reports whether the current record's persisted artifacts
// (plan record and localization index) are still present under valid
// integrity envelopes. A corrupt document is quarantined by the check
// itself, which is fine: the only caller rewrites both immediately.
func (s *Service) storedIntact(cur *planRecord) bool {
	if _, ok, err := s.keep.Get(CollServe, planKey(cur.Building)); err != nil || !ok {
		return false
	}
	if _, ok, err := s.keep.Get(CollServe, cur.IndexKey); err != nil || !ok {
		return false
	}
	return true
}

// verKey keys the per-building version-floor document: the highest version
// number ever durably assigned, written before the version's artifacts.
func verKey(building string) string { return building + "/ver" }

type versionFloorDoc struct {
	Version uint64 `json:"version"`
}

// versionFloor reads the building's persisted version floor; 0 when absent
// or corrupt (a corrupt floor is quarantined and regrows on next publish).
func (s *Service) versionFloor(building string) uint64 {
	data, ok, err := s.keep.Get(CollServe, verKey(building))
	if err != nil || !ok {
		return 0
	}
	var doc versionFloorDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		s.keep.Quarantine(CollServe, verKey(building))
		return 0
	}
	return doc.Version
}

func (s *Service) putVersionFloor(building string, v uint64) error {
	data, err := json.Marshal(&versionFloorDoc{Version: v})
	if err != nil {
		return err
	}
	return s.keep.Put(CollServe, verKey(building), data)
}

// Plan returns the building's current served version, or false when the
// building has no published plan.
func (s *Service) Plan(building string) (PlanView, bool) {
	rec, ok := s.record(building)
	if !ok {
		return PlanView{}, false
	}
	s.reg.Counter("mapserve.plan.serves").Inc()
	return PlanView{
		PlanVersion: PlanVersion{Building: building, Version: rec.Version, ETag: rec.ETag},
		JSON:        rec.JSON,
		PNG:         rec.PNG,
	}, true
}

// record resolves the building's current plan record: the in-memory
// pointer when the service published (or already loaded) it, otherwise a
// lazy load from the store (the restart path).
func (s *Service) record(building string) (*planRecord, bool) {
	s.mu.RLock()
	rec := s.current[building]
	s.mu.RUnlock()
	if rec != nil {
		return rec, true
	}
	data, ok, err := s.keep.Get(CollServe, planKey(building))
	if err != nil {
		// Corrupt on disk: the keeper quarantined it. Report no plan; the
		// processor's next scan notices and republishes from checkpoints.
		s.reg.Counter("mapserve.plan.corrupt").Inc()
		return nil, false
	}
	if !ok {
		return nil, false
	}
	loaded, err := decodePlanRecord(data)
	if err != nil {
		// Valid envelope over bytes the codec rejects (a write-time bug,
		// not bit rot) — quarantine it all the same, never serve it.
		s.keep.Quarantine(CollServe, planKey(building))
		s.reg.Counter("mapserve.plan.decode_errors").Inc()
		return nil, false
	}
	s.mu.Lock()
	// A concurrent Publish may have swapped a newer record in while we
	// decoded; never roll the pointer backwards.
	if cur := s.current[building]; cur != nil {
		loaded = cur
	} else {
		s.current[building] = loaded
	}
	s.mu.Unlock()
	return loaded, true
}

// Pose is a localization answer on the current plan: global-frame
// position and camera heading (radians).
type Pose struct {
	X, Y    float64
	Heading float64
}

// LocateResult is the outcome of one localization query.
type LocateResult struct {
	// Located is false when no stored key-frame passed the hierarchical
	// comparison (the query does not resemble any mapped place).
	Located bool
	// Version and ETag identify the plan version the pose refers to.
	Version uint64
	ETag    string
	// Pose is the best-matching placed key-frame's pose (zero if !Located).
	Pose Pose
	// TrackID is the capture that contributed the matched key-frame.
	TrackID string
	// Confidence is the winning stage-2 SURF similarity (S2); higher is
	// better, and it always exceeds the comparison threshold hf when
	// Located.
	Confidence float64
	// Candidates is how many stored key-frames were compared after the
	// heading gate.
	Candidates int
}

// Locate answers one localization query: extract query-frame features,
// optionally derive a heading gate from the IMU snippet, compare against
// the building's persisted key-frame index, and return the best match's
// pose on the current plan version. It never blocks on an in-flight
// reconstruction: the record and index are resolved once, so the answer is
// consistent with exactly one complete published version.
func (s *Service) Locate(building string, frame *img.RGB, imu []sensor.Sample) (LocateResult, error) {
	start := time.Now()
	s.reg.Counter("mapserve.locate.requests").Inc()
	if frame == nil {
		return LocateResult{}, fmt.Errorf("mapserve: locate %s: nil query frame", building)
	}
	rec, ok := s.record(building)
	if !ok {
		return LocateResult{}, fmt.Errorf("%w: %s", ErrUnknownBuilding, building)
	}
	idx, err := s.index(rec)
	if err != nil {
		return LocateResult{}, fmt.Errorf("mapserve: locate %s: %w", building, err)
	}
	query, err := keyframe.Describe(frame, s.kf)
	if err != nil {
		return LocateResult{}, fmt.Errorf("mapserve: locate %s: %w", building, err)
	}
	var queryHeading float64
	haveHeading := false
	if len(imu) > 0 && s.maxHeadingDiff > 0 {
		if hs := sensor.EstimateHeadings(imu); len(hs) > 0 {
			queryHeading = hs[len(hs)-1]
			haveHeading = true
		}
	}
	res := LocateResult{Version: rec.Version, ETag: rec.ETag}
	best := -1
	for i, kf := range idx.kfs {
		if haveHeading {
			if d := mathx.AngleDiff(queryHeading, idx.poses[i].Heading); d > s.maxHeadingDiff || d < -s.maxHeadingDiff {
				continue
			}
		}
		res.Candidates++
		same, s2, err := keyframe.Compare(query, kf, s.kf)
		if err != nil {
			// A malformed stored key-frame must not fail the query; skip it.
			s.reg.Counter("mapserve.locate.compare_errors").Inc()
			continue
		}
		if same && (best < 0 || s2 > res.Confidence) {
			best = i
			res.Confidence = s2
		}
	}
	if best >= 0 {
		res.Located = true
		res.Pose = Pose{X: idx.poses[best].Pos.X, Y: idx.poses[best].Pos.Y, Heading: idx.poses[best].Heading}
		res.TrackID = idx.poses[best].TrackID
		s.reg.Counter("mapserve.locate.hits").Inc()
	} else {
		s.reg.Counter("mapserve.locate.misses").Inc()
	}
	s.reg.Histogram("mapserve.locate.seconds").Observe(time.Since(start).Seconds())
	return res, nil
}

// index resolves the decoded localization index for one plan record:
// LRU-cached per content key, loaded from the store and decoded on miss.
func (s *Service) index(rec *planRecord) (*locIndex, error) {
	if idx, ok := s.cache.get(rec.IndexKey); ok {
		s.reg.Counter("mapserve.index.cache.hits").Inc()
		return idx, nil
	}
	s.reg.Counter("mapserve.index.cache.misses").Inc()
	data, ok, err := s.keep.Get(CollServe, rec.IndexKey)
	if err != nil {
		s.reg.Counter("mapserve.index.corrupt").Inc()
		return nil, fmt.Errorf("%w (key %s): %v", ErrIndexUnavailable, rec.IndexKey, err)
	}
	if !ok {
		return nil, fmt.Errorf("%w (key %s)", ErrIndexUnavailable, rec.IndexKey)
	}
	idx, err := decodeLocIndex(data)
	if err != nil {
		s.keep.Quarantine(CollServe, rec.IndexKey)
		s.reg.Counter("mapserve.index.decode_errors").Inc()
		return nil, fmt.Errorf("%w (key %s): %v", ErrIndexUnavailable, rec.IndexKey, err)
	}
	if evicted := s.cache.put(rec.IndexKey, idx); evicted > 0 {
		s.reg.Counter("mapserve.index.cache.evictions").Add(int64(evicted))
	}
	return idx, nil
}

// Buildings lists every building with published read-tier state on disk,
// derived from the store keys. A building whose plan record was
// quarantined still appears (its version-floor document survives), so the
// scrubber and the processor's repair scan can find it.
func (s *Service) Buildings() []string {
	seen := make(map[string]bool)
	var out []string
	for _, k := range s.st.Keys(CollServe) {
		var b string
		switch {
		case strings.HasSuffix(k, "/plan"):
			b = strings.TrimSuffix(k, "/plan")
		case strings.HasSuffix(k, "/ver"):
			b = strings.TrimSuffix(k, "/ver")
		default:
			continue
		}
		if b != "" && !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	sort.Strings(out)
	return out
}

// Verify integrity-checks one building's persisted read-tier artifacts
// without serving them: the plan record (envelope and codec) and the
// localization index it names. It reports published=false when the
// building has no read-tier state at all; a non-nil error means some
// artifact is corrupt or missing and republishing the same reconstruction
// (which takes Publish's repair path) heals it. Corrupt documents are
// quarantined as a side effect, exactly as the serving read path would.
func (s *Service) Verify(building string) (published bool, err error) {
	data, ok, gerr := s.keep.Get(CollServe, planKey(building))
	if gerr != nil {
		s.reg.Counter("mapserve.plan.corrupt").Inc()
		return true, gerr
	}
	if !ok {
		s.mu.RLock()
		inMem := s.current[building] != nil
		s.mu.RUnlock()
		if inMem || s.hasVersionFloor(building) {
			// Published at some point (still serving from memory, or the
			// floor document survived) but the record is gone from disk.
			return true, fmt.Errorf("mapserve: %s: plan record missing", building)
		}
		return false, nil
	}
	rec, derr := decodePlanRecord(data)
	if derr != nil {
		s.keep.Quarantine(CollServe, planKey(building))
		s.reg.Counter("mapserve.plan.decode_errors").Inc()
		return true, derr
	}
	if _, ok, gerr := s.keep.Get(CollServe, rec.IndexKey); gerr != nil {
		s.reg.Counter("mapserve.index.corrupt").Inc()
		return true, gerr
	} else if !ok {
		return true, fmt.Errorf("mapserve: %s: %w (key %s)", building, ErrIndexUnavailable, rec.IndexKey)
	}
	return true, nil
}

func (s *Service) hasVersionFloor(building string) bool {
	return s.st.Has(CollServe, verKey(building))
}

// Stored is Verify by presence alone: published as Verify reports it,
// and present when the plan record and the localization index it names
// are both in the store. Once the record is in memory it reads and hashes
// no artifact bytes, so a scan can ask every tick. Rot is found by the
// scrubber and by verified reads, which quarantine it: that removes the
// document and turns present false.
func (s *Service) Stored(building string) (published, present bool) {
	rec, ok := s.record(building)
	if !ok {
		return s.hasVersionFloor(building), false
	}
	return true, s.st.Has(CollServe, planKey(building)) && s.st.Has(CollServe, rec.IndexKey)
}

// globalPose pairs a stored key-frame with its plan-frame pose.
type globalPose struct {
	TrackID string
	Pos     geom.Pt
	Heading float64
}

func planKey(building string) string { return building + "/plan" }

// indexKey keys an index document by building and content, so plan and
// index can never be mismatched across a crash: the plan record names
// exactly the index built from the same reconstruction.
func indexKey(building, etag string) string {
	n := 16
	if len(etag) < n {
		n = len(etag)
	}
	return building + "/index@" + etag[:n]
}
