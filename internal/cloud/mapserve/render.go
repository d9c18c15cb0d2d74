package mapserve

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"crowdmap/internal/floorplan"
	"crowdmap/internal/geom"
)

// planRecord is the persisted current-version document for one building.
// It is the commit point of a publish: once the record is stored (and the
// in-memory pointer swapped), readers serve this version. The localization
// index is persisted separately under IndexKey so plan serving never pays
// to decode features it does not read. Corpus is the fingerprint of the
// capture corpus the version was built from (crowdmap.Result.Corpus);
// records written before it existed decode with it empty.
type planRecord struct {
	Building string
	Version  uint64
	ETag     string
	JSON     []byte
	PNG      []byte
	IndexKey string
	Corpus   string
	SVG      []byte
}

func encodePlanRecord(rec *planRecord) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(rec); err != nil {
		return nil, fmt.Errorf("encode plan record: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("encode plan record: %w", err)
	}
	return buf.Bytes(), nil
}

// CodecError is the typed decode failure of a persisted mapserve
// artifact (plan record or localization index): truncated or garbled
// bytes under a valid integrity envelope. Callers quarantine the
// document and count the event; corrupted input never panics (pinned by
// FuzzDecodePlanRecord / FuzzDecodeLocIndex).
type CodecError struct {
	Artifact string
	Err      error
}

func (e *CodecError) Error() string {
	return "mapserve: decode " + e.Artifact + ": " + e.Err.Error()
}
func (e *CodecError) Unwrap() error { return e.Err }

func decodePlanRecord(data []byte) (*planRecord, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, &CodecError{Artifact: "plan record", Err: err}
	}
	var rec planRecord
	if err := gob.NewDecoder(zr).Decode(&rec); err != nil {
		return nil, &CodecError{Artifact: "plan record", Err: err}
	}
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return nil, &CodecError{Artifact: "plan record", Err: err}
	}
	if err := zr.Close(); err != nil {
		return nil, &CodecError{Artifact: "plan record", Err: err}
	}
	return &rec, nil
}

// PlanDoc is the vector plan document served by GET
// /api/v1/buildings/{building}/plan: everything a client needs to draw
// the floor plan and anchor localization poses on it, in plan (meter)
// coordinates with +y north.
type PlanDoc struct {
	Building string `json:"building"`
	Version  uint64 `json:"version"`
	// Bounds is the plan's bounding rectangle: [minX, minY, maxX, maxY].
	Bounds [4]float64 `json:"bounds"`
	// GridRes is the hallway occupancy-cell size, meters (0 when the plan
	// has no hallway mask).
	GridRes float64 `json:"grid_res"`
	// Hallway lists the centers of occupied hallway cells.
	Hallway [][2]float64 `json:"hallway_cells"`
	Rooms   []RoomDoc    `json:"rooms"`
}

// RoomDoc is one placed room in the vector document.
type RoomDoc struct {
	ID     string     `json:"id"`
	Center [2]float64 `json:"center"`
	Width  float64    `json:"width"`
	Length float64    `json:"length"`
	// Theta is the wall orientation, radians.
	Theta float64 `json:"theta"`
	// Polygon is the room outline (closed implicitly; 4 corners).
	Polygon [][2]float64 `json:"polygon"`
}

// renderPlanJSON builds the deterministic vector document. Hallway cells
// are emitted in raster order and rooms in placement order, so identical
// plans marshal to identical bytes (the ETag depends on it).
func renderPlanJSON(building string, version uint64, p *floorplan.Plan) ([]byte, error) {
	bounds, err := p.Bounds()
	if err != nil {
		return nil, err
	}
	doc := PlanDoc{
		Building: building,
		Version:  version,
		Bounds:   [4]float64{bounds.Min.X, bounds.Min.Y, bounds.Max.X, bounds.Max.Y},
		Hallway:  [][2]float64{},
		Rooms:    make([]RoomDoc, 0, len(p.Rooms)),
	}
	if p.HallwayMask != nil {
		doc.GridRes = p.HallwayMask.Res
		for _, pt := range p.HallwayMask.TruePoints() {
			doc.Hallway = append(doc.Hallway, [2]float64{pt.X, pt.Y})
		}
	}
	for _, room := range p.Rooms {
		rd := RoomDoc{
			ID:     room.ID,
			Center: [2]float64{room.Center.X, room.Center.Y},
			Width:  room.Width,
			Length: room.Length,
			Theta:  room.Theta,
		}
		for _, v := range room.Polygon().Vertices {
			rd.Polygon = append(rd.Polygon, [2]float64{v.X, v.Y})
		}
		doc.Rooms = append(doc.Rooms, rd)
	}
	return json.Marshal(&doc)
}

// pngScale is the raster resolution, pixels per meter (matches RenderSVG).
const pngScale = 12.0

// maxPNGSide caps the raster dimensions; a plan bounding box large enough
// to exceed it signals corrupt input, not a building.
const maxPNGSide = 4096

// renderPlanPNG rasterizes the plan as an occupancy-grid PNG: white
// background, hallway cells gray, room outlines dark blue. North is up
// (+y at the top), mirroring RenderSVG's projection. The encoder is
// deterministic, so identical plans produce identical bytes.
func renderPlanPNG(p *floorplan.Plan) ([]byte, error) {
	bounds, err := p.Bounds()
	if err != nil {
		return nil, err
	}
	w := int(math.Ceil(bounds.W()*pngScale)) + 1
	h := int(math.Ceil(bounds.H()*pngScale)) + 1
	if w > maxPNGSide || h > maxPNGSide {
		return nil, fmt.Errorf("plan raster %dx%d exceeds %d px", w, h, maxPNGSide)
	}
	im := image.NewRGBA(image.Rect(0, 0, w, h))
	white := color.RGBA{255, 255, 255, 255}
	for i := 0; i < len(im.Pix); i += 4 {
		im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3] = white.R, white.G, white.B, white.A
	}
	toPx := func(pt geom.Pt) (int, int) {
		return int((pt.X - bounds.Min.X) * pngScale), int((bounds.Max.Y - pt.Y) * pngScale)
	}
	if p.HallwayMask != nil {
		gray := color.RGBA{187, 187, 187, 255}
		half := p.HallwayMask.Res / 2
		side := int(math.Ceil(p.HallwayMask.Res * pngScale))
		for _, pt := range p.HallwayMask.TruePoints() {
			x0, y0 := toPx(geom.P(pt.X-half, pt.Y+half))
			for dy := 0; dy < side; dy++ {
				for dx := 0; dx < side; dx++ {
					setPx(im, x0+dx, y0+dy, gray)
				}
			}
		}
	}
	blue := color.RGBA{11, 100, 216, 255}
	for _, room := range p.Rooms {
		poly := room.Polygon()
		for _, e := range poly.Edges() {
			steps := int(e.Len()*pngScale) + 1
			for s := 0; s <= steps; s++ {
				x, y := toPx(e.At(float64(s) / float64(steps)))
				setPx(im, x, y, blue)
			}
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, im); err != nil {
		return nil, fmt.Errorf("encode plan PNG: %w", err)
	}
	return buf.Bytes(), nil
}

func setPx(im *image.RGBA, x, y int, c color.RGBA) {
	if x < 0 || y < 0 || x >= im.Rect.Dx() || y >= im.Rect.Dy() {
		return
	}
	im.SetRGBA(x, y, c)
}
