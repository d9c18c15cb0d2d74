package main

import (
	"encoding/json"
	"fmt"
	"math"

	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/eval"
	"crowdmap/internal/floorplan"
	"crowdmap/internal/geom"
	"crowdmap/internal/world"
)

// planScore is a served plan scored against the simulator's ground truth
// (paper Table I and Fig. 8a).
type planScore struct {
	Hallway eval.PRF
	// Cells is how many hallway cells the plan serves.
	Cells int
	// Offset maps plan coordinates onto ground truth (add it to a plan
	// point); it also aligns located poses.
	Offset geom.Pt
	// Rooms is how many served rooms carry a ground-truth label, and
	// AreaErr their mean relative area error (0 when there are none).
	Rooms   int
	AreaErr float64
}

// cellSet is the served hallway mask: occupied cells on the lattice the
// cell centers sit on.
type cellSet struct {
	res    float64
	anchor geom.Pt
	cells  map[[2]int]bool
}

func newCellSet(doc *mapserve.PlanDoc) *cellSet {
	cs := &cellSet{res: doc.GridRes, cells: make(map[[2]int]bool, len(doc.Hallway))}
	if len(doc.Hallway) > 0 {
		cs.anchor = geom.P(doc.Hallway[0][0], doc.Hallway[0][1])
	}
	for _, c := range doc.Hallway {
		cs.cells[cs.index(geom.P(c[0], c[1]))] = true
	}
	return cs
}

func (cs *cellSet) index(p geom.Pt) [2]int {
	return [2]int{
		int(math.Floor((p.X-cs.anchor.X)/cs.res + 0.5)),
		int(math.Floor((p.Y-cs.anchor.Y)/cs.res + 0.5)),
	}
}

// occupancy is the mask shifted by off, as eval.MaskOccupancy shifts a
// library plan's mask.
func (cs *cellSet) occupancy(off geom.Pt) eval.Occupancy {
	return func(p geom.Pt) bool { return cs.cells[cs.index(p.Sub(off))] }
}

// scorePlanJSON scores the vector plan document GET
// /api/v1/buildings/{b}/plan serves, the way crowdmap.Evaluate scores a
// library plan: translation alignment seeded by the centroid difference
// (eval.AlignTranslation), hallway P/R/F over the truth hallway with
// cells inside true rooms cut (eval.ShapePRF), and room errors by room
// ID at the same offset (eval.ScoreRooms).
func scorePlanJSON(data []byte, b *world.Building) (planScore, error) {
	var doc mapserve.PlanDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return planScore{}, fmt.Errorf("decode plan: %w", err)
	}
	if len(doc.Hallway) == 0 || doc.GridRes <= 0 {
		return planScore{}, fmt.Errorf("plan %s v%d has no hallway cells", doc.Building, doc.Version)
	}
	cs := newCellSet(&doc)
	var genC geom.Pt
	for _, c := range doc.Hallway {
		genC = genC.Add(geom.P(c[0], c[1]))
	}
	genC = genC.Scale(1 / float64(len(doc.Hallway)))
	var truthC geom.Pt
	var area float64
	for _, h := range b.HallwayRects {
		truthC = truthC.Add(h.Center().Scale(h.Area()))
		area += h.Area()
	}
	truthC = truthC.Scale(1 / area)
	region := b.Outline.Expand(2)
	off := eval.AlignTranslation(cs.occupancy(geom.Pt{}), eval.TruthHallway(b), region, truthC.Sub(genC), 8)
	aligned := cs.occupancy(off)
	cut := func(p geom.Pt) bool {
		if !aligned(p) {
			return false
		}
		_, inRoom := b.RoomAt(p)
		return !inRoom
	}
	// ShapePRF fails only on an empty shape, and the truth hallway never
	// is: a collapsed plan whose cells all fall in rooms scores zero.
	prf, _ := eval.ShapePRF(cut, eval.TruthHallway(b), region, 0.25)
	sc := planScore{Hallway: prf, Cells: len(doc.Hallway), Offset: off}
	var rooms []floorplan.Room
	for _, r := range doc.Rooms {
		if r.ID != "" {
			rooms = append(rooms, floorplan.Room{ID: r.ID, Center: geom.P(r.Center[0], r.Center[1]), Width: r.Width, Length: r.Length, Theta: r.Theta})
		}
	}
	if len(rooms) > 0 {
		errs, err := eval.ScoreRooms(rooms, b, off)
		if err != nil {
			return planScore{}, err
		}
		sc.Rooms, sc.AreaErr = len(errs), eval.MeanAreaError(errs)
	}
	return sc, nil
}
