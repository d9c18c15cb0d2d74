// Package server implements CrowdMap's cloud ingestion front door — the
// stand-in for the paper's Tornado web server: capture sessions arrive as
// zipped uploads split into chunks (the paper ships 5 MB chunks over
// WebSockets; we use sequential HTTP POSTs), are reassembled, validated,
// and stored in the document store for the processing pipeline.
package server

import (
	"archive/zip"
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"strings"

	"encoding/json"

	"crowdmap/internal/crowd"
	"crowdmap/internal/geom"
	"crowdmap/internal/img"
	"crowdmap/internal/sensor"
	"crowdmap/internal/world"
)

// Decompression-bomb caps: a capture archive is a few minutes of low-FPS
// phone video, so these bounds are generous by an order of magnitude while
// keeping a hostile archive from ballooning into gigabytes of heap. The
// declared zip sizes are checked before any byte is inflated, and the
// limits are enforced again while reading because declared sizes can lie.
const (
	// MaxArchiveUncompressed caps the declared total uncompressed size.
	MaxArchiveUncompressed = 256 << 20
	// MaxFileUncompressed caps each member's declared uncompressed size.
	MaxFileUncompressed = 64 << 20
	// MaxFramePixels caps a frame's W×H before full PNG decode; the
	// pipeline stores three float64 planes per frame, so pixels are the
	// real memory currency (4 Mpx ≈ 100 MB of planes).
	MaxFramePixels = 4 << 20
)

// TooLargeError reports an archive that exceeds the decompression caps.
// The HTTP layer maps it to 413 Payload Too Large.
type TooLargeError struct {
	// Name is the offending archive member ("" for the archive total).
	Name string
	// Size is the offending size (bytes, or pixels for frame dimensions).
	Size int64
	// Limit is the cap that was exceeded.
	Limit int64
}

func (e *TooLargeError) Error() string {
	what := e.Name
	if what == "" {
		what = "archive"
	}
	return fmt.Sprintf("server: %s too large: %d exceeds limit %d", what, e.Size, e.Limit)
}

// captureMeta is the meta.json document inside a capture archive.
type captureMeta struct {
	ID            string       `json:"id"`
	UserID        string       `json:"user_id"`
	Kind          int          `json:"kind"`
	Night         bool         `json:"night"`
	FPS           float64      `json:"fps"`
	RoomID        string       `json:"room_id,omitempty"`
	StepLengthEst float64      `json:"step_length_est"`
	Camera        cameraMeta   `json:"camera"`
	Geo           crowd.GeoTag `json:"geo"`
	FrameTimes    []float64    `json:"frame_times"`
}

type cameraMeta struct {
	FOV   float64 `json:"fov"`
	W     int     `json:"w"`
	H     int     `json:"h"`
	Pitch float64 `json:"pitch"`
}

// truthSample mirrors sensor.MotionSample for the evaluation sidecar.
type truthSample struct {
	T       float64 `json:"t"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Heading float64 `json:"heading"`
	Walking bool    `json:"walking"`
}

// EncodeCapture serializes a capture session to the upload archive format:
// meta.json, imu.json, frames/NNNN.png and (for evaluation reproducibility
// only) truth.json. A capture without frames is a valid IMU-only upload
// (a camera-less contributor, or a trajectory-mode deployment) as long as
// it carries an inertial stream.
func EncodeCapture(c *crowd.Capture) ([]byte, error) {
	if c == nil || (len(c.Frames) == 0 && len(c.IMU) == 0) {
		return nil, fmt.Errorf("server: cannot encode empty capture")
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	meta := captureMeta{
		ID: c.ID, UserID: c.UserID, Kind: int(c.Kind), Night: c.Night,
		FPS: c.FPS, RoomID: c.RoomID, StepLengthEst: c.StepLengthEst,
		Camera: cameraMeta{FOV: c.Camera.FOV, W: c.Camera.W, H: c.Camera.H, Pitch: c.Camera.Pitch},
		Geo:    c.Geo,
	}
	for _, f := range c.Frames {
		meta.FrameTimes = append(meta.FrameTimes, f.T)
	}
	if err := writeJSON(zw, "meta.json", meta); err != nil {
		return nil, err
	}
	if err := writeJSON(zw, "imu.json", c.IMU); err != nil {
		return nil, err
	}
	var truth []truthSample
	for _, m := range c.Truth {
		truth = append(truth, truthSample{T: m.T, X: m.Pos.X, Y: m.Pos.Y, Heading: m.Heading, Walking: m.Walking})
	}
	if err := writeJSON(zw, "truth.json", truth); err != nil {
		return nil, err
	}
	for i, f := range c.Frames {
		w, err := zw.Create(fmt.Sprintf("frames/%04d.png", i))
		if err != nil {
			return nil, fmt.Errorf("server: zip frame %d: %w", i, err)
		}
		if err := png.Encode(w, toImage(f.Image)); err != nil {
			return nil, fmt.Errorf("server: encode frame %d: %w", i, err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("server: finalize zip: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCapture parses an upload archive back into a capture session.
// Frames lose their ground-truth poses (those travel in truth.json and are
// reattached by interpolation for evaluation).
//
// The decoder defends the boundary where untrusted client bytes become
// heap: declared (and actual) uncompressed sizes are capped — a violation
// returns a *TooLargeError — and parameters the pipeline divides by or
// iterates on (FPS, StepLengthEst, the IMU stream) are rejected here with
// explicit errors rather than left to surface as NaNs downstream. Deeper
// semantic validation (finite samples, plausibility) is the quality gate's
// job, not the decoder's.
func DecodeCapture(data []byte) (*crowd.Capture, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("server: open archive: %w", err)
	}
	var total int64
	files := make(map[string]*zip.File, len(zr.File))
	for _, f := range zr.File {
		size := int64(f.UncompressedSize64)
		if size > MaxFileUncompressed {
			return nil, &TooLargeError{Name: f.Name, Size: size, Limit: MaxFileUncompressed}
		}
		total += size
		if total > MaxArchiveUncompressed {
			return nil, &TooLargeError{Size: total, Limit: MaxArchiveUncompressed}
		}
		files[f.Name] = f
	}
	var meta captureMeta
	if err := readJSON(files, "meta.json", &meta); err != nil {
		return nil, err
	}
	var imu []sensor.Sample
	if err := readJSON(files, "imu.json", &imu); err != nil {
		return nil, err
	}
	var truth []truthSample
	if err := readJSON(files, "truth.json", &truth); err != nil {
		return nil, err
	}
	// Parameters the pipeline divides by must be positive and finite at
	// the boundary (JSON cannot encode NaN/Inf, but a defensive decoder
	// does not rely on that).
	// FPS guards the frame loop; an IMU-only archive (no frame times, no
	// frames) never iterates it, so the declared rate is unconstrained
	// there (the encoder writes 0).
	if len(meta.FrameTimes) > 0 && (!(meta.FPS > 0) || meta.FPS > 1e6) {
		return nil, fmt.Errorf("server: capture %s: fps %v not in (0, 1e6]", meta.ID, meta.FPS)
	}
	if !(meta.StepLengthEst > 0) || meta.StepLengthEst > 1e3 {
		return nil, fmt.Errorf("server: capture %s: step length estimate %v not in (0, 1e3]", meta.ID, meta.StepLengthEst)
	}
	if len(imu) == 0 {
		return nil, fmt.Errorf("server: capture %s: empty IMU stream", meta.ID)
	}
	c := &crowd.Capture{
		ID: meta.ID, UserID: meta.UserID, Kind: crowd.Kind(meta.Kind), Night: meta.Night,
		FPS: meta.FPS, RoomID: meta.RoomID, StepLengthEst: meta.StepLengthEst,
		Camera: world.Camera{FOV: meta.Camera.FOV, W: meta.Camera.W, H: meta.Camera.H, Pitch: meta.Camera.Pitch},
		Geo:    meta.Geo,
		IMU:    imu,
	}
	for _, ts := range truth {
		c.Truth = append(c.Truth, sensor.MotionSample{
			T: ts.T, Pos: geom.P(ts.X, ts.Y), Heading: ts.Heading, Walking: ts.Walking,
		})
	}
	// Frames in index order.
	for i := 0; ; i++ {
		name := fmt.Sprintf("frames/%04d.png", i)
		zf, ok := files[name]
		if !ok {
			break
		}
		// Header first: reject absurd dimensions before allocating the
		// full bitmap (a 1-KB PNG can declare a gigapixel canvas).
		rc, err := zf.Open()
		if err != nil {
			return nil, fmt.Errorf("server: open %s: %w", name, err)
		}
		cfgImg, err := png.DecodeConfig(io.LimitReader(rc, MaxFileUncompressed))
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("server: decode %s header: %w", name, err)
		}
		if px := int64(cfgImg.Width) * int64(cfgImg.Height); cfgImg.Width <= 0 || cfgImg.Height <= 0 || px > MaxFramePixels {
			return nil, &TooLargeError{Name: name, Size: px, Limit: MaxFramePixels}
		}
		rc, err = zf.Open()
		if err != nil {
			return nil, fmt.Errorf("server: open %s: %w", name, err)
		}
		decoded, err := png.Decode(newLimitedReader(rc, MaxFileUncompressed, name))
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("server: decode %s: %w", name, err)
		}
		if i >= len(meta.FrameTimes) {
			return nil, fmt.Errorf("server: frame %d has no timestamp", i)
		}
		vf := crowd.VideoFrame{T: meta.FrameTimes[i], Image: fromImage(decoded)}
		if pose, err := c.TruthPoseAt(vf.T); err == nil {
			vf.TruthPose = pose
		}
		c.Frames = append(c.Frames, vf)
	}
	if len(c.Frames) != len(meta.FrameTimes) {
		return nil, fmt.Errorf("server: %d frames but %d timestamps", len(c.Frames), len(meta.FrameTimes))
	}
	return c, nil
}

func writeJSON(zw *zip.Writer, name string, v interface{}) error {
	w, err := zw.Create(name)
	if err != nil {
		return fmt.Errorf("server: zip %s: %w", name, err)
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return fmt.Errorf("server: encode %s: %w", name, err)
	}
	return nil
}

func readJSON(files map[string]*zip.File, name string, v interface{}) error {
	zf, ok := files[name]
	if !ok {
		return fmt.Errorf("server: archive missing %s", name)
	}
	rc, err := zf.Open()
	if err != nil {
		return fmt.Errorf("server: open %s: %w", name, err)
	}
	defer rc.Close()
	// Enforce the per-file cap on actual inflated bytes: the declared
	// size already passed the upfront scan, but declared sizes can lie.
	data, err := io.ReadAll(newLimitedReader(rc, MaxFileUncompressed, name))
	if err != nil {
		return fmt.Errorf("server: read %s: %w", name, err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("server: parse %s: %w", name, err)
	}
	return nil
}

// limitedReader is io.LimitReader that fails loudly — with a typed
// *TooLargeError instead of a silent io.EOF — when the limit is crossed.
type limitedReader struct {
	r     io.Reader
	left  int64
	limit int64
	name  string
}

func newLimitedReader(r io.Reader, limit int64, name string) *limitedReader {
	return &limitedReader{r: r, left: limit, limit: limit, name: name}
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.left <= 0 {
		return 0, &TooLargeError{Name: l.name, Size: l.limit + 1, Limit: l.limit}
	}
	if int64(len(p)) > l.left {
		p = p[:l.left]
	}
	n, err := l.r.Read(p)
	l.left -= int64(n)
	return n, err
}

// toImage converts a float RGB plane to an 8-bit image.
func toImage(m *img.RGB) *image.RGBA {
	out := image.NewRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			r, g, b := m.At(x, y)
			out.SetRGBA(x, y, color.RGBA{
				R: to8(r), G: to8(g), B: to8(b), A: 255,
			})
		}
	}
	return out
}

// fromImage converts any decoded image to float RGB planes. Archive
// frames decode to *image.RGBA, whose Pix bytes are read directly: v*0x101
// is exactly what the generic path's RGBA() widens a byte to, so both
// paths give the same planes bit for bit.
func fromImage(src image.Image) *img.RGB {
	m, ok := src.(*image.RGBA)
	if !ok {
		return fromImageGeneric(src)
	}
	b := m.Bounds()
	out := img.NewRGB(b.Dx(), b.Dy())
	for y := 0; y < out.H; y++ {
		row := m.Pix[m.PixOffset(b.Min.X, b.Min.Y+y):]
		o := y * out.W
		for x := 0; x < out.W; x++ {
			px := row[4*x : 4*x+3 : 4*x+3]
			out.R[o+x] = float64(uint32(px[0])*0x101) / 65535
			out.G[o+x] = float64(uint32(px[1])*0x101) / 65535
			out.B[o+x] = float64(uint32(px[2])*0x101) / 65535
		}
	}
	return out
}

// fromImageGeneric converts through each pixel's color model.
func fromImageGeneric(src image.Image) *img.RGB {
	b := src.Bounds()
	out := img.NewRGB(b.Dx(), b.Dy())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bb, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(x, y, float64(r)/65535, float64(g)/65535, float64(bb)/65535)
		}
	}
	return out
}

func to8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}
