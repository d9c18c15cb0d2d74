package server

// Read-tier HTTP surface: versioned plan serving (vector JSON + rendered
// PNG, with ETag/If-None-Match revalidation) and the localization
// endpoint, both delegating to a mapserve.Service. The routes are always
// registered — a server built without WithMapServe answers them 404 — so
// the route table (and the docs/API.md drift check over it) does not
// depend on configuration.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"net/http"
	"strconv"
	"strings"

	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/sensor"
)

// WithMapServe attaches the read tier: plan-version serving and
// localization answer from this service. Without it the buildings.*
// routes return 404.
func WithMapServe(ms *mapserve.Service) Option {
	return func(s *Server) { s.maps = ms }
}

// maxLocateBody bounds a locate request body (one PNG frame plus an IMU
// snippet fits comfortably; anything bigger is abuse).
const maxLocateBody = 16 << 20

// etagMatches implements the If-None-Match comparison: any listed
// entity-tag matching the current one (weak validators compare equal to
// their strong form; "*" matches anything).
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		tag := strings.TrimSpace(part)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == "*" || tag == etag {
			return true
		}
	}
	return false
}

// servePlanArtifact writes one plan artifact with conditional-GET
// semantics: ETag + Cache-Control on every response, 304 with no body
// when If-None-Match matches the current version.
func (s *Server) servePlanArtifact(w http.ResponseWriter, r *http.Request, contentType string, pick func(mapserve.PlanView) []byte) {
	if s.maps == nil {
		http.NotFound(w, r)
		return
	}
	v, ok := s.maps.Plan(r.PathValue("building"))
	if !ok {
		http.NotFound(w, r)
		return
	}
	etag := `"` + v.ETag + `"`
	h := w.Header()
	h.Set("ETag", etag)
	// no-cache = cache, but revalidate: clients repeat the conditional GET
	// and pay a 304 until the version actually changes.
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Plan-Version", strconv.FormatUint(v.Version, 10))
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		s.obs.Counter("mapserve.plan.not_modified").Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", contentType)
	_, _ = w.Write(pick(v))
}

func (s *Server) handleBuildingPlan(w http.ResponseWriter, r *http.Request) {
	s.servePlanArtifact(w, r, "application/json",
		func(v mapserve.PlanView) []byte { return v.JSON })
}

func (s *Server) handleBuildingPlanPNG(w http.ResponseWriter, r *http.Request) {
	s.servePlanArtifact(w, r, "image/png",
		func(v mapserve.PlanView) []byte { return v.PNG })
}

// LocateRequest is the POST /api/v1/buildings/{building}/locate body: one
// query frame as base64 PNG, plus an optional IMU snippet whose fused
// heading gates the candidate key-frames.
type LocateRequest struct {
	FramePNG string      `json:"frame_png"`
	IMU      []IMUSample `json:"imu,omitempty"`
}

// IMUSample mirrors sensor.Sample for the JSON wire format.
type IMUSample struct {
	T       float64    `json:"t"`
	GyroZ   float64    `json:"gyro_z"`
	Accel   [3]float64 `json:"accel"`
	Compass float64    `json:"compass"`
}

// LocateResponse is the locate answer: whether the query matched a mapped
// place, the plan version the pose refers to, and the pose itself.
type LocateResponse struct {
	Located    bool      `json:"located"`
	Version    uint64    `json:"version"`
	ETag       string    `json:"etag"`
	Pose       *PoseJSON `json:"pose,omitempty"`
	TrackID    string    `json:"track_id,omitempty"`
	Confidence float64   `json:"confidence"`
	Candidates int       `json:"candidates"`
}

// PoseJSON is a plan-frame pose: meters, radians.
type PoseJSON struct {
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Heading float64 `json:"heading"`
}

func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	if s.maps == nil {
		http.NotFound(w, r)
		return
	}
	building := r.PathValue("building")
	if _, ok := s.maps.Plan(building); !ok {
		http.NotFound(w, r)
		return
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxLocateBody)); err != nil {
		http.Error(w, "read locate body: "+err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	var req LocateRequest
	if err := json.Unmarshal(body.Bytes(), &req); err != nil {
		http.Error(w, "invalid locate request: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	raw, err := base64.StdEncoding.DecodeString(req.FramePNG)
	if err != nil {
		http.Error(w, "invalid frame_png base64: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	// Header first, as for uploaded frames: a small PNG can declare a
	// canvas that would be allocated in full by the decode below.
	cfg, err := png.DecodeConfig(bytes.NewReader(raw))
	if err != nil {
		http.Error(w, "invalid frame_png: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if px := int64(cfg.Width) * int64(cfg.Height); px > MaxFramePixels {
		tle := &TooLargeError{Name: "frame_png", Size: px, Limit: MaxFramePixels}
		http.Error(w, tle.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	decoded, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		http.Error(w, "invalid frame_png: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	frame := fromImage(decoded)
	imu := make([]sensor.Sample, len(req.IMU))
	for i, smp := range req.IMU {
		imu[i] = sensor.Sample{T: smp.T, GyroZ: smp.GyroZ, Accel: smp.Accel, Compass: smp.Compass}
	}
	res, err := s.maps.Locate(building, frame, imu)
	var small *keyframe.FrameSizeError
	switch {
	case errors.Is(err, mapserve.ErrUnknownBuilding):
		http.NotFound(w, r)
		return
	case errors.As(err, &small):
		http.Error(w, "invalid frame_png: "+small.Error(), http.StatusUnprocessableEntity)
		return
	case err != nil:
		http.Error(w, fmt.Sprintf("locate: %v", err), http.StatusInternalServerError)
		return
	}
	resp := LocateResponse{
		Located:    res.Located,
		Version:    res.Version,
		ETag:       res.ETag,
		TrackID:    res.TrackID,
		Confidence: res.Confidence,
		Candidates: res.Candidates,
	}
	if res.Located {
		resp.Pose = &PoseJSON{X: res.Pose.X, Y: res.Pose.Y, Heading: res.Pose.Heading}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&resp); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
