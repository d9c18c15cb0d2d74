package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/crowd"
	"crowdmap/internal/obs"
	"crowdmap/internal/quality"
)

// CollCaptures is the store collection of assembled capture archives
// (zip bytes). Plans live in the read tier (mapserve.CollServe).
const CollCaptures = "captures"

// ChunkSize is the upload chunk size; the paper splits uploads into 5 MB
// chunks for transmission.
const ChunkSize = 5 << 20

// Pending-upload hygiene defaults: a phone that starts a chunked upload and
// walks out of coverage must not pin its partial archive in memory forever,
// and a flood of half-finished uploads must not grow the pending map without
// bound.
const (
	// DefaultMaxPending caps concurrently assembling uploads.
	DefaultMaxPending = 256
	// DefaultUploadTTL evicts uploads idle for this long.
	DefaultUploadTTL = 10 * time.Minute
)

// ChunkLog is the durability hook for the chunk protocol: each chunk is
// logged before it is acknowledged, so an acked chunk survives a crash
// and the phone re-sends only what the server never confirmed.
// *store.WAL satisfies it; a nil ChunkLog means memory-only operation.
type ChunkLog interface {
	LogChunk(id string, index, total int, data []byte) error
	LogUploadDone(id string) error
	LogUploadEvicted(id string) error
	// LogUploadRejected records an assembled upload refused at admission
	// (quality gate or decompression caps) with its reason codes, so the
	// rejection is auditable and replay does not resurrect the chunks.
	LogUploadRejected(id, reason string) error
}

// Server is the HTTP ingestion frontend. It is safe for concurrent use.
type Server struct {
	store *store.Store
	obs   *obs.Registry
	now   func() time.Time // injectable clock for eviction tests
	wal   ChunkLog         // nil when running memory-only
	adm   *admission       // nil = admission control off (see admission.go)
	gate  *quality.Params  // nil = quality gate off (trust decoded input)
	// imuOnlyAdmission admits gate-failed uploads whose inertial verdict
	// alone is OK — the front door for trajectory/hybrid deployments.
	imuOnlyAdmission bool
	// maps is the read tier (versioned plan serving + localization); nil
	// answers the buildings.* routes 404 (see mapserve.go).
	maps *mapserve.Service
	// onStored is the upload commit hook (WithOnStored); nil = none.
	onStored func(id string, raw []byte, c *crowd.Capture)

	// draining flips at graceful shutdown: chunk uploads are refused with
	// 503 so the daemon can finish in-flight work and exit.
	draining atomic.Bool
	// ready flips once the deployment finishes startup (store recovered,
	// processor running); GET /readyz serves 503 until then and again while
	// draining, so load balancers route around restarts. Servers built
	// without WithNotReady are ready immediately (library/test use).
	ready atomic.Bool
	// startNotReady defers readiness until MarkReady (set by WithNotReady).
	startNotReady bool

	maxPending int
	uploadTTL  time.Duration

	mu        sync.Mutex
	pending   map[string]*pendingUpload
	recovered map[string]*store.RecoveredUpload // installed as pending on first use
	// evicted remembers upload sessions dropped by the TTL sweep so a
	// straggler chunk for one gets a retryable "resend from 0" error
	// instead of silently starting a doomed new session.
	evicted map[string]time.Time
}

type pendingUpload struct {
	total    int
	chunks   map[int][]byte
	lastSeen time.Time
}

// add records one chunk and, when the upload is complete, returns the
// archive assembled in index order. Caller holds the server lock.
func (up *pendingUpload) add(index int, data []byte) (assembled []byte, complete bool) {
	up.chunks[index] = data
	if len(up.chunks) != up.total {
		return nil, false
	}
	indices := make([]int, 0, len(up.chunks))
	for i := range up.chunks {
		indices = append(indices, i)
	}
	sort.Ints(indices)
	for _, i := range indices {
		assembled = append(assembled, up.chunks[i]...)
	}
	return assembled, true
}

// Option configures a Server.
type Option func(*Server)

// WithObs attaches a metrics registry: every route is then instrumented
// (http.<route>.* counters and latencies) and upload lifecycle events are
// counted (uploads.started/completed/evicted_stale/rejected_capacity). The
// same registry is served at GET /metrics.
func WithObs(r *obs.Registry) Option { return func(s *Server) { s.obs = r } }

// WithPendingLimits overrides the pending-upload cap and idle TTL. A
// non-positive maxPending or ttl keeps the corresponding default.
func WithPendingLimits(maxPending int, ttl time.Duration) Option {
	return func(s *Server) {
		if maxPending > 0 {
			s.maxPending = maxPending
		}
		if ttl > 0 {
			s.uploadTTL = ttl
		}
	}
}

// WithQualityGate enables admission-time capture validation: a completed
// upload that decodes but fails the quality gate is refused with 422 and a
// machine-readable reason list instead of being stored for the pipeline to
// trip over. Off by default — library users and tests that construct their
// own corpora keep the trust-the-input behavior.
func WithQualityGate(p quality.Params) Option {
	return func(s *Server) { s.gate = &p }
}

// WithIMUOnlyAdmission relaxes the quality gate for trajectory-capable
// deployments (crowdmapd -mode trajectory|hybrid): an upload the full
// gate refuses is still admitted when quality.CheckIMU alone passes —
// frame-less IMU-only captures and captures with defective video but a
// sound inertial stream. The reconstruction's per-modality routing
// decides what such a capture contributes. No effect without
// WithQualityGate.
func WithIMUOnlyAdmission() Option {
	return func(s *Server) { s.imuOnlyAdmission = true }
}

// WithOnStored installs the upload commit hook: fn runs once for each
// assembled upload the server stores, after the store write and before
// the 201, with the upload ID, the archive bytes and the capture the
// server decoded from them. Rejected uploads (413, 422) never reach it.
// It runs on the request goroutine, so it must be cheap; the caller must
// not modify raw or c.
func WithOnStored(fn func(id string, raw []byte, c *crowd.Capture)) Option {
	return func(s *Server) { s.onStored = fn }
}

// WithNotReady starts the server unready: GET /readyz answers 503 until
// MarkReady is called (after store recovery and pipeline startup). Use in
// deployments behind a load balancer; without this option the server is
// ready from construction.
func WithNotReady() Option { return func(s *Server) { s.startNotReady = true } }

// WithChunkLog attaches the write-ahead log: chunks are made durable
// before they are acknowledged, and upload completion/eviction events are
// logged so crash recovery reconstructs exactly the acked state.
func WithChunkLog(l ChunkLog) Option { return func(s *Server) { s.wal = l } }

// WithRecoveredUploads seeds the pending-upload map with partial uploads
// replayed from the WAL (store.WAL.RecoveredUploads), so phones resume
// mid-upload across a server restart instead of starting over.
func WithRecoveredUploads(ups map[string]*store.RecoveredUpload) Option {
	return func(s *Server) { s.recovered = ups }
}

// New builds a server over the given document store. Without options the
// server uses a private metrics registry and the default pending limits.
func New(st *store.Store, opts ...Option) (*Server, error) {
	if st == nil {
		return nil, fmt.Errorf("server: nil store")
	}
	s := &Server{
		store:      st,
		now:        time.Now,
		maxPending: DefaultMaxPending,
		uploadTTL:  DefaultUploadTTL,
		pending:    make(map[string]*pendingUpload),
		evicted:    make(map[string]time.Time),
	}
	for _, o := range opts {
		o(s)
	}
	if s.obs == nil {
		s.obs = obs.New()
	}
	s.ready.Store(!s.startNotReady)
	now := s.now()
	for id, ru := range s.recovered {
		if len(s.pending) >= s.maxPending {
			break
		}
		up := &pendingUpload{total: ru.Total, chunks: make(map[int][]byte, len(ru.Chunks)), lastSeen: now}
		for i, data := range ru.Chunks {
			up.chunks[i] = data
		}
		s.pending[id] = up
		s.obs.Counter("uploads.recovered").Inc()
	}
	s.recovered = nil
	return s, nil
}

// Store exposes the backing store (the processing pipeline reads from it).
func (s *Server) Store() *store.Store { return s.store }

// MarkReady flips GET /readyz to 200. Call once startup recovery is done
// and the deployment can take traffic.
func (s *Server) MarkReady() {
	s.ready.Store(true)
	s.obs.Gauge("server.ready").Set(1)
}

// Ready reports whether the server would answer /readyz with 200.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Metrics exposes the server's registry so the reconstruction pipeline can
// share it (one /metrics endpoint covering ingestion and processing).
func (s *Server) Metrics() *obs.Registry { return s.obs }

// PendingUploads reports the number of partially assembled uploads.
func (s *Server) PendingUploads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// evictedMarkerCap bounds the evicted-session markers; markers also age
// out after one extra TTL, so the map cannot grow without bound.
const evictedMarkerCap = 4096

// evictStaleLocked drops pending uploads idle past the TTL, leaving an
// eviction marker behind so straggler chunks get a resend error. Caller
// holds the server lock.
func (s *Server) evictStaleLocked(now time.Time) {
	for id, up := range s.pending {
		if now.Sub(up.lastSeen) > s.uploadTTL {
			delete(s.pending, id)
			if len(s.evicted) < evictedMarkerCap {
				s.evicted[id] = now
			}
			if s.wal != nil {
				_ = s.wal.LogUploadEvicted(id)
			}
			s.obs.Counter("uploads.evicted_stale").Inc()
		}
	}
	for id, when := range s.evicted {
		if now.Sub(when) > s.uploadTTL {
			delete(s.evicted, id)
		}
	}
}

// Handler returns the HTTP mux:
//
//	POST /api/v1/captures/{id}/chunks?index=i&total=n — upload one chunk
//	GET  /api/v1/captures/{id}/status                  — upload progress
//	GET  /api/v1/captures                              — list capture IDs
//	GET  /api/v1/captures/{id}                         — download archive
//	GET  /api/v1/buildings/{building}/plan             — versioned vector plan (ETag/304)
//	GET  /api/v1/buildings/{building}/plan.png         — versioned occupancy-grid PNG (ETag/304)
//	GET  /api/v1/buildings/{building}/plan.svg         — versioned SVG rendition (ETag/304)
//	POST /api/v1/buildings/{building}/locate           — localize one frame on the plan
//	GET  /metrics                                      — metrics snapshot (JSON)
//	GET  /healthz                                      — liveness
//	GET  /readyz                                       — readiness (503 while starting or draining)
//
// Every route is wrapped in the metrics middleware (request counts, status
// classes, latency, bytes in/out) under http.<route>.*. The full request/
// response reference, including conditional-GET and error semantics, is
// docs/API.md (kept in sync by the ci.sh route-drift check).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, obs.Middleware(s.obs, name, h))
	}
	route("POST /api/v1/captures/{id}/chunks", "captures.chunks", s.handleChunk)
	route("GET /api/v1/captures/{id}/status", "captures.status", s.handleUploadStatus)
	route("GET /api/v1/captures", "captures.list", s.handleListCaptures)
	route("GET /api/v1/captures/{id}", "captures.get", s.handleGetCapture)
	route("GET /api/v1/buildings/{building}/plan", "buildings.plan", s.handleBuildingPlan)
	route("GET /api/v1/buildings/{building}/plan.png", "buildings.plan_png", s.handleBuildingPlanPNG)
	route("GET /api/v1/buildings/{building}/plan.svg", "buildings.plan_svg", s.handleBuildingPlanSVG)
	route("POST /api/v1/buildings/{building}/locate", "buildings.locate", s.handleLocate)
	mux.Handle("GET /metrics", obs.Handler(s.obs))
	route("GET /healthz", "healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	route("GET /readyz", "readyz", s.handleReadyz)
	return mux
}

// handleReadyz is the load-balancer readiness probe: 200 only when startup
// recovery finished (MarkReady) and shutdown drain has not begun. Liveness
// (/healthz) stays 200 through both, so orchestrators do not kill a
// recovering or draining process.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case !s.ready.Load():
		http.Error(w, "starting", http.StatusServiceUnavailable)
	default:
		fmt.Fprintln(w, "ok")
	}
}

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	reserved, admitted := s.admitChunk(w, r)
	if !admitted {
		return
	}
	if reserved > 0 {
		defer func() {
			s.adm.releaseBytes(reserved)
			s.obs.Gauge("admission.inflight.bytes").Set(float64(s.adm.inflight.Load()))
		}()
	}
	id := r.PathValue("id")
	if id == "" {
		http.Error(w, "missing capture id", http.StatusBadRequest)
		return
	}
	index, err := strconv.Atoi(r.URL.Query().Get("index"))
	if err != nil || index < 0 {
		http.Error(w, "bad chunk index", http.StatusBadRequest)
		return
	}
	total, err := strconv.Atoi(r.URL.Query().Get("total"))
	if err != nil || total < 1 || index >= total {
		http.Error(w, "bad chunk total", http.StatusBadRequest)
		return
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, ChunkSize+1)); err != nil {
		http.Error(w, "read chunk: "+err.Error(), http.StatusBadRequest)
		return
	}
	if buf.Len() > ChunkSize {
		http.Error(w, "chunk exceeds limit", http.StatusRequestEntityTooLarge)
		return
	}
	now := s.now()
	s.mu.Lock()
	up, ok := s.pending[id]
	if !ok {
		// A non-initial chunk for a session the TTL sweep evicted must not
		// silently open a doomed new session (the evicted siblings are
		// gone); tell the client to resend from the start.
		if _, wasEvicted := s.evicted[id]; wasEvicted && index > 0 {
			s.mu.Unlock()
			s.obs.Counter("uploads.resend_required").Inc()
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintf(w, `{"error":"upload session expired","resend_from":0}`+"\n")
			return
		}
		delete(s.evicted, id)
		// New upload: make room first (lazy stale sweep), then enforce the
		// cap so abandoned uploads cannot exhaust the pending map.
		s.evictStaleLocked(now)
		if len(s.pending) >= s.maxPending {
			s.mu.Unlock()
			s.obs.Counter("uploads.rejected_capacity").Inc()
			http.Error(w, "too many pending uploads", http.StatusServiceUnavailable)
			return
		}
		up = &pendingUpload{total: total, chunks: make(map[int][]byte)}
		s.pending[id] = up
		s.obs.Counter("uploads.started").Inc()
	}
	if up.total != total {
		s.mu.Unlock()
		http.Error(w, "chunk total mismatch", http.StatusConflict)
		return
	}
	data := append([]byte(nil), buf.Bytes()...)
	if s.wal != nil {
		// Durability before acknowledgement: the chunk reaches the WAL
		// before the phone hears 202, so an acked chunk is never re-asked
		// for after a crash.
		if err := s.wal.LogChunk(id, index, total, data); err != nil {
			s.mu.Unlock()
			s.obs.Counter("uploads.log_failed").Inc()
			http.Error(w, "persist chunk: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	up.lastSeen = now
	if _, dup := up.chunks[index]; dup {
		s.obs.Counter("uploads.chunks_duplicate").Inc()
	}
	assembled, complete := up.add(index, data)
	if complete {
		delete(s.pending, id)
	}
	s.mu.Unlock()
	s.obs.Counter("uploads.chunks").Inc()

	if !complete {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"received":%d,"total":%d}`+"\n", index, total)
		return
	}
	// Validate before storing: a malformed archive is rejected here, the
	// first layer of the paper's "divide and conquer" data filtering.
	decoded, err := DecodeCapture(assembled)
	if err != nil {
		var tle *TooLargeError
		if errors.As(err, &tle) {
			// Decompression-bomb caps: the archive fit the chunk protocol
			// but inflates past the decode limits.
			s.obs.Counter("uploads.rejected_toolarge").Inc()
			s.rejectUpload(id, err.Error())
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		s.obs.Counter("uploads.invalid").Inc()
		s.rejectUpload(id, err.Error())
		http.Error(w, "invalid capture archive: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if s.gate != nil {
		qp := *s.gate
		qp.Obs = s.obs // quality.checked/admitted/rejected land on /metrics
		if _, rep := quality.Gate(decoded, qp); !rep.OK {
			// Trajectory-capable deployments keep uploads whose inertial
			// stream alone is usable; the pipeline's modality routing takes
			// it from there.
			imuOK := false
			if s.imuOnlyAdmission {
				if irep := quality.CheckIMU(decoded, qp); irep.OK {
					imuOK = true
					s.obs.Counter("uploads.admitted_imu_only").Inc()
				}
			}
			if !imuOK {
				s.rejectUpload(id, strings.Join(rep.Reasons, ","))
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusUnprocessableEntity)
				_ = json.NewEncoder(w).Encode(map[string]interface{}{
					"error":   "capture rejected by quality gate",
					"reasons": rep.Reasons,
				})
				return
			}
		}
	}
	if err := s.store.Put(CollCaptures, id, assembled); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if s.wal != nil {
		// Marks the chunk records dead; recovery after a crash between the
		// Put above and this mark merely re-creates a pending upload that
		// ages out, so the order is safe.
		_ = s.wal.LogUploadDone(id)
	}
	s.obs.Counter("uploads.completed").Inc()
	if s.onStored != nil {
		s.onStored(id, assembled, decoded)
	}
	w.WriteHeader(http.StatusCreated)
	fmt.Fprintf(w, `{"stored":%q,"bytes":%d}`+"\n", id, len(assembled))
}

// rejectUpload records a refused assembled upload in the WAL so its chunk
// records are dead (replay must not resurrect them as a pending upload the
// phone would be invited to finish).
func (s *Server) rejectUpload(id, reason string) {
	if s.wal != nil {
		_ = s.wal.LogUploadRejected(id, reason)
	}
}

// UploadStatus is the resume contract: which chunks the server already
// holds for a capture, or that it is fully stored. A phone reconnecting
// after a network drop (or a server restart with a WAL) fetches this and
// re-sends only the missing chunks.
type UploadStatus struct {
	Stored   bool  `json:"stored"`
	Total    int   `json:"total"`
	Received []int `json:"received"`
}

func (s *Server) handleUploadStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var st UploadStatus
	if _, ok := s.store.Get(CollCaptures, id); ok {
		st.Stored = true
	} else {
		s.mu.Lock()
		if up, ok := s.pending[id]; ok {
			st.Total = up.total
			st.Received = make([]int, 0, len(up.chunks))
			for i := range up.chunks {
				st.Received = append(st.Received, i)
			}
		}
		s.mu.Unlock()
		sort.Ints(st.Received)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&st); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleListCaptures(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.store.Keys(CollCaptures)); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleGetCapture(w http.ResponseWriter, r *http.Request) {
	data, ok := s.store.Get(CollCaptures, r.PathValue("id"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	_, _ = w.Write(data)
}

// chunkCount returns the number of ChunkSize pieces an archive splits
// into (at least one, matching the upload protocol).
func chunkCount(archive []byte) int {
	total := (len(archive) + ChunkSize - 1) / ChunkSize
	if total == 0 {
		total = 1
	}
	return total
}

// sendChunk POSTs chunk i of the archive.
func sendChunk(client *http.Client, baseURL, id string, archive []byte, i, total int) error {
	lo := i * ChunkSize
	hi := lo + ChunkSize
	if hi > len(archive) {
		hi = len(archive)
	}
	url := fmt.Sprintf("%s/api/v1/captures/%s/chunks?index=%d&total=%d", baseURL, id, i, total)
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(archive[lo:hi]))
	if err != nil {
		return fmt.Errorf("server: upload chunk %d: %w", i, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("server: chunk %d rejected with status %s", i, resp.Status)
	}
	return nil
}

// UploadCapture is the client side of the chunk protocol: it splits an
// archive into ChunkSize pieces and POSTs them sequentially to baseURL.
func UploadCapture(client *http.Client, baseURL, id string, archive []byte) error {
	if client == nil {
		client = http.DefaultClient
	}
	total := chunkCount(archive)
	for i := 0; i < total; i++ {
		if err := sendChunk(client, baseURL, id, archive, i, total); err != nil {
			return err
		}
	}
	return nil
}

// ResumeUpload continues an interrupted upload: it asks the server which
// chunks it already holds (the status endpoint) and re-sends only the
// missing ones. A capture the server has fully stored is a no-op; a
// session the server no longer knows (evicted, or a restart without a
// WAL) is re-sent from the start.
func ResumeUpload(client *http.Client, baseURL, id string, archive []byte) error {
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Get(fmt.Sprintf("%s/api/v1/captures/%s/status", baseURL, id))
	if err != nil {
		return fmt.Errorf("server: upload status: %w", err)
	}
	var st UploadStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: upload status for %s: status %s, %v", id, resp.Status, err)
	}
	if st.Stored {
		return nil
	}
	total := chunkCount(archive)
	have := make(map[int]bool, len(st.Received))
	if st.Total == total {
		for _, i := range st.Received {
			have[i] = true
		}
	}
	for i := 0; i < total; i++ {
		if have[i] {
			continue
		}
		if err := sendChunk(client, baseURL, id, archive, i, total); err != nil {
			return err
		}
	}
	return nil
}
