// Package aggregate implements CrowdMap's sequence-based user-trajectory
// aggregation (paper Section III-B.I), the system's core contribution:
// matched key-frames act as anchor points proposing candidate translations
// between two trajectories' local frames (the set F of the paper's
// equation 2), and each candidate is verified by the longest-common-
// subsequence metric L over the trajectory point sequences with distance
// tolerance ε and index window δ. Two trajectories merge only when
// S3 = max_{f∈F} L(Ta, f(Tb)) / min(i, j) exceeds the threshold hl — the
// sequence check that single-image anchoring lacks and that Fig. 7(a)
// shows it needs.
package aggregate

import (
	"fmt"
	"math"
	"sort"

	"crowdmap/internal/geom"
	"crowdmap/internal/keyframe"
	"crowdmap/internal/mathx"
	"crowdmap/internal/trajectory"
)

// Track couples a dead-reckoned trajectory with its key-frames; it is the
// unit of aggregation.
type Track struct {
	ID   string
	Traj *trajectory.Trajectory
	KFs  []*keyframe.KeyFrame
	// Night records the capture lighting pool (evaluation bookkeeping).
	Night bool
	// Hash is the content fingerprint of the capture this track was
	// extracted from (crowd.Capture.Fingerprint). A non-empty hash lets the
	// pair-comparison cache recognize a track across jobs; empty disables
	// caching for pairs involving this track.
	Hash string
	// Quality is the capture's quality-gate score in (0, 1]; zero means
	// unscored. When anchor support and sequence score tie exactly,
	// aggregation prefers the match whose tracks carry the higher score, so
	// sanitized-but-suspect captures lose ties against pristine ones.
	Quality float64
}

// EffectiveQuality maps the unscored zero value to a perfect score so
// callers that never ran the quality gate keep today's behavior.
func (t *Track) EffectiveQuality() float64 {
	if t.Quality <= 0 {
		return 1
	}
	return t.Quality
}

// Params tunes aggregation.
type Params struct {
	// Epsilon is the ε point-distance tolerance of the L metric, meters.
	Epsilon float64
	// Delta is the δ maximum index difference of the L metric.
	Delta int
	// HL is the S3 acceptance threshold.
	HL float64
	// ResampleDT is the uniform time step the L metric runs on, seconds
	// (used only when ResampleDist is zero).
	ResampleDT float64
	// ResampleDist, when positive, resamples trajectories by traveled
	// distance (meters) instead of time before the L metric. Stationary
	// phases (the SRS spin) then collapse to a single point instead of
	// manufacturing a long fake "common path".
	ResampleDist float64
	// MaxAnchors caps how many anchor translations are LCS-verified per
	// pair (strongest S2 first); 0 means all.
	MaxAnchors int
	// AnchorStride subsamples both key-frame lists during anchor finding
	// (1 = every key-frame). Stride 2 quarters the dominant cost of
	// aggregation at a small recall cost — the knob the paper's Spark
	// deployment turns by adding machines instead.
	AnchorStride int
	// MaxHeadingDiff is the maximum compass-heading difference between two
	// matched key-frames, radians: two frames of the same scene must have
	// been shot facing roughly the same way, so anchors that disagree with
	// the inertial headings are visual aliases and are dropped. This is the
	// visual/inertial cross-fusion at the heart of the system.
	MaxHeadingDiff float64
	// MinAnchorSupport is the minimum number of independent anchors (no
	// shared key-frame on either side) that must agree with a candidate
	// translation before it is LCS-verified. This encodes the paper's
	// "multiple frames over a certain period of time instead of single
	// frame comparison": a single look-alike frame cannot trigger a merge.
	MinAnchorSupport int
	// KF carries the key-frame comparison thresholds.
	KF keyframe.Params
}

// DefaultParams returns the evaluation tuning.
func DefaultParams() Params {
	return Params{
		Epsilon:          1.5,
		Delta:            50,
		HL:               0.35,
		ResampleDT:       0.5,
		ResampleDist:     0.4,
		MaxAnchors:       6,
		MaxHeadingDiff:   mathx.Deg2Rad(30),
		MinAnchorSupport: 2,
		KF:               keyframe.DefaultParams(),
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Epsilon <= 0 {
		return fmt.Errorf("aggregate: epsilon must be positive, got %g", p.Epsilon)
	}
	if p.Delta <= 0 {
		return fmt.Errorf("aggregate: delta must be positive, got %d", p.Delta)
	}
	if p.HL <= 0 || p.HL > 1 {
		return fmt.Errorf("aggregate: hl must be in (0, 1], got %g", p.HL)
	}
	if p.ResampleDT <= 0 && p.ResampleDist <= 0 {
		return fmt.Errorf("aggregate: need a positive resample step (time %g, distance %g)", p.ResampleDT, p.ResampleDist)
	}
	return p.KF.Validate()
}

// LCS computes the paper's longest-common-subsequence metric L between two
// point sequences: points pair up when within eps and their indices differ
// by less than delta.
func LCS(a, b []geom.Pt, eps float64, delta int) int {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0
	}
	// Rolling two-row DP.
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			di := i - j
			if di < 0 {
				di = -di
			}
			if di < delta && a[i-1].Dist(b[j-1]) <= eps {
				cur[j] = 1 + prev[j-1]
				continue
			}
			if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// Anchor is one key-frame correspondence between two tracks.
type Anchor struct {
	IA, IB int     // key-frame indices in the two tracks
	S2     float64 // SURF similarity
	// Translation maps track B's local frame onto track A's:
	// posA = posB + Translation.
	Translation geom.Pt
}

// Match is the aggregation decision for a track pair.
type Match struct {
	A, B        int // track indices
	S3          float64
	Translation geom.Pt
	Anchors     []Anchor
	// Support is the number of independent anchors that agreed with the
	// winning translation; higher means a more trustworthy edge.
	Support int
}

// FindAnchors runs the hierarchical key-frame comparison across two tracks
// and returns all accepted correspondences, strongest first. The cross
// product is scored through keyframe.CompareBlock — batched stage 1, then
// SURF for the admitted pairs — which makes the identical decisions the
// per-pair Compare loop did.
func FindAnchors(a, b *Track, p Params) ([]Anchor, error) {
	stride := p.AnchorStride
	if stride < 1 {
		stride = 1
	}
	var akfs, bkfs []*keyframe.KeyFrame
	var ais, bis []int
	for i := 0; i < len(a.KFs); i += stride {
		akfs = append(akfs, a.KFs[i])
		ais = append(ais, i)
	}
	for j := 0; j < len(b.KFs); j += stride {
		bkfs = append(bkfs, b.KFs[j])
		bis = append(bis, j)
	}
	same, s2s, err := keyframe.CompareBlock(akfs, bkfs, p.KF)
	if err != nil {
		return nil, fmt.Errorf("aggregate: comparing %s with %s: %w", a.ID, b.ID, err)
	}
	var anchors []Anchor
	for x, i := range ais {
		ka := a.KFs[i]
		for y, j := range bis {
			if !same[x*len(bkfs)+y] {
				continue
			}
			kb := b.KFs[j]
			if p.MaxHeadingDiff > 0 {
				if d := mathx.AngleDiff(ka.Heading, kb.Heading); d > p.MaxHeadingDiff || d < -p.MaxHeadingDiff {
					continue
				}
			}
			anchors = append(anchors, Anchor{
				IA: i, IB: j, S2: s2s[x*len(bkfs)+y],
				Translation: ka.LocalPos.Sub(kb.LocalPos),
			})
		}
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].S2 > anchors[j].S2 })
	p.KF.Obs.Counter("aggregate.anchors.found").Add(int64(len(anchors)))
	return anchors, nil
}

// ComparePair decides whether two tracks can merge: anchors propose
// translations, the LCS metric scores each, and the best S3 above hl wins.
func ComparePair(ai, bi int, a, b *Track, p Params) (Match, bool, error) {
	if err := p.Validate(); err != nil {
		return Match{}, false, err
	}
	p.KF.Obs.Counter("aggregate.pairs.compared").Inc()
	anchors, err := FindAnchors(a, b, p)
	if err != nil {
		return Match{}, false, err
	}
	m, ok, err := DecideFromAnchors(ai, bi, a, b, anchors, p)
	if ok {
		p.KF.Obs.Counter("aggregate.pairs.matched").Inc()
	}
	return m, ok, err
}

// DecideFromAnchors runs the sequence-verification half of ComparePair on a
// precomputed anchor list, so experiments can reuse the expensive visual
// matching across parameter sweeps.
func DecideFromAnchors(ai, bi int, a, b *Track, anchors []Anchor, p Params) (Match, bool, error) {
	if len(anchors) == 0 {
		return Match{}, false, nil
	}
	ra, err := resampleForLCS(a.Traj, p)
	if err != nil {
		return Match{}, false, err
	}
	rb, err := resampleForLCS(b.Traj, p)
	if err != nil {
		return Match{}, false, err
	}
	pa := ra.Positions()
	pb := rb.Positions()
	minLen := len(pa)
	if len(pb) < minLen {
		minLen = len(pb)
	}
	if minLen == 0 {
		return Match{}, false, nil
	}
	limit := len(anchors)
	if p.MaxAnchors > 0 && limit > p.MaxAnchors {
		limit = p.MaxAnchors
	}
	best := Match{A: ai, B: bi, Anchors: anchors}
	found := false
	for _, an := range anchors[:limit] {
		sup := support(anchors, an, 2*p.Epsilon, a, b)
		if sup < p.MinAnchorSupport {
			continue
		}
		shifted := make([]geom.Pt, len(pb))
		for i, q := range pb {
			shifted[i] = q.Add(an.Translation)
		}
		l := LCS(pa, shifted, p.Epsilon, p.Delta)
		s3 := float64(l) / float64(minLen)
		if s3 > best.S3 || (s3 == best.S3 && sup > best.Support) {
			best.S3 = s3
			best.Translation = an.Translation
			best.Support = sup
			found = true
		}
	}
	if !found || best.S3 <= p.HL {
		return Match{}, false, nil
	}
	return best, true, nil
}

// resampleForLCS prepares a trajectory for the L metric: by distance when
// configured (robust to stationary phases), by time otherwise.
func resampleForLCS(tr *trajectory.Trajectory, p Params) (*trajectory.Trajectory, error) {
	if p.ResampleDist > 0 {
		return tr.ResampleByDistance(p.ResampleDist)
	}
	return tr.Resample(p.ResampleDT)
}

// support counts independent, spatially spread anchors agreeing with the
// candidate translation: each counted anchor must use fresh key-frames AND
// sit at least minAnchorSpread away from every already-counted anchor on
// both tracks. Spread is what makes consensus meaningful — two users
// spinning in two different look-alike rooms produce dozens of mutually
// consistent aliases, but all at one spot; genuine co-walked paths spread
// their agreeing anchors along the corridor.
const minAnchorSpread = 0.8 // meters

func support(anchors []Anchor, cand Anchor, radius float64, a, b *Track) int {
	usedA := make(map[int]bool)
	usedB := make(map[int]bool)
	var posA, posB []geom.Pt
	n := 0
	for _, an := range anchors {
		if an.Translation.Dist(cand.Translation) > radius {
			continue
		}
		if usedA[an.IA] || usedB[an.IB] {
			continue
		}
		pa := a.KFs[an.IA].LocalPos
		pb := b.KFs[an.IB].LocalPos
		spread := true
		for _, q := range posA {
			if q.Dist(pa) < minAnchorSpread {
				spread = false
				break
			}
		}
		if spread {
			for _, q := range posB {
				if q.Dist(pb) < minAnchorSpread {
					spread = false
					break
				}
			}
		}
		if !spread {
			continue
		}
		usedA[an.IA] = true
		usedB[an.IB] = true
		posA = append(posA, pa)
		posB = append(posB, pb)
		n++
	}
	return n
}

// Result is the outcome of aggregating a track set.
type Result struct {
	// Offsets maps track index to the translation placing it in the global
	// frame. Tracks absent from the map could not be placed.
	Offsets map[int]geom.Pt
	// Matches holds every accepted pair decision.
	Matches []Match
	// Rejected holds matches discarded by the loop-consistency check: their
	// translation contradicted the placement implied by stronger edges.
	Rejected []Match
	// Components lists the connected components of the merge graph,
	// largest first, as track index sets.
	Components [][]int
}

// PairComparer computes a merge decision for a pair of tracks; the
// parallel cloud pipeline supplies a distributed implementation, while
// SequentialComparer runs in-process.
type PairComparer func(ai, bi int, a, b *Track, p Params) (Match, bool, error)

// Aggregate merges all tracks: every pair is compared (via cmp, defaulting
// to ComparePair) and accepted matches are assembled into a global frame
// with a robust spanning forest: edges are applied strongest-support
// first through a weighted union-find, and an edge that closes a loop
// inconsistently with the already-established placement (translation
// disagrees by more than 3ε) is rejected — a wrong visual alias cannot
// override the consensus of stronger matches. The largest component
// defines the building's global frame.
func Aggregate(tracks []*Track, p Params, cmp PairComparer) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cmp == nil {
		cmp = ComparePair
	}
	res := &Result{Offsets: make(map[int]geom.Pt)}
	for i := 0; i < len(tracks); i++ {
		for j := i + 1; j < len(tracks); j++ {
			m, ok, err := cmp(i, j, tracks[i], tracks[j], p)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			res.Matches = append(res.Matches, m)
		}
	}
	// Strongest evidence first: anchor support, then sequence score, then
	// — on exact ties only, so ungated corpora are unaffected — the
	// quality-gate score of the match's weaker track. Low-quality
	// (sanitized) captures thereby lose ties against pristine evidence.
	order := make([]int, len(res.Matches))
	for i := range order {
		order[i] = i
	}
	minQ := func(m Match) float64 {
		return math.Min(tracks[m.A].EffectiveQuality(), tracks[m.B].EffectiveQuality())
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := res.Matches[order[x]], res.Matches[order[y]]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if a.S3 != b.S3 {
			return a.S3 > b.S3
		}
		return minQ(a) > minQ(b)
	})
	u := newUnionFind(len(tracks))
	tol := 3 * p.Epsilon
	for _, idx := range order {
		m := res.Matches[idx]
		if !u.union(m.A, m.B, m.Translation, tol) {
			res.Rejected = append(res.Rejected, m)
		}
	}
	// Extract components and per-track offsets relative to each root.
	comps := make(map[int][]int)
	offs := make(map[int]geom.Pt, len(tracks))
	for i := range tracks {
		root, off := u.find(i)
		comps[root] = append(comps[root], i)
		offs[i] = off
	}
	for _, c := range comps {
		res.Components = append(res.Components, c)
	}
	sort.Slice(res.Components, func(i, j int) bool {
		if len(res.Components[i]) != len(res.Components[j]) {
			return len(res.Components[i]) > len(res.Components[j])
		}
		return res.Components[i][0] < res.Components[j][0]
	})
	// Keep only tracks in the largest component: isolated trajectories
	// cannot be placed confidently (the paper drops them as outliers).
	if len(res.Components) > 0 {
		for _, idx := range res.Components[0] {
			res.Offsets[idx] = offs[idx]
		}
	}
	refinePlacement(res, tol)
	return res, nil
}

// refinePlacement runs median-voting refinement over the placed tracks: a
// single high-support but wrong edge can win the greedy spanning phase
// (two identical-looking rooms produce many mutually consistent visual
// aliases), but it stays a minority among a node's edges. Each node
// re-places itself at the median offset implied by its incident matches
// when that consensus clearly outvotes its current placement. Rejected is
// recomputed against the final placement.
func refinePlacement(res *Result, tol float64) {
	if len(res.Offsets) == 0 {
		return
	}
	// Each res.Offsets[idx] update feeds later candidates within the same
	// sweep, so the sweep must visit nodes in a fixed order — Go randomizes
	// map iteration, which made final placements vary run-to-run.
	idxs := make([]int, 0, len(res.Offsets))
	for idx := range res.Offsets {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for iter := 0; iter < 4; iter++ {
		changed := false
		for _, idx := range idxs {
			var cands []geom.Pt
			for _, m := range res.Matches {
				switch idx {
				case m.A:
					if off, ok := res.Offsets[m.B]; ok {
						cands = append(cands, off.Sub(m.Translation))
					}
				case m.B:
					if off, ok := res.Offsets[m.A]; ok {
						cands = append(cands, off.Add(m.Translation))
					}
				}
			}
			if len(cands) < 2 {
				continue
			}
			xs := make([]float64, len(cands))
			ys := make([]float64, len(cands))
			for i, c := range cands {
				xs[i] = c.X
				ys[i] = c.Y
			}
			med := geom.P(median(xs), median(ys))
			cur := res.Offsets[idx]
			if med.Dist(cur) <= tol {
				continue
			}
			nearMed, nearCur := 0, 0
			var cluster []geom.Pt
			for _, c := range cands {
				if c.Dist(med) <= tol {
					nearMed++
					cluster = append(cluster, c)
				}
				if c.Dist(cur) <= tol {
					nearCur++
				}
			}
			if nearMed > nearCur && len(cluster) > 0 {
				var mean geom.Pt
				for _, c := range cluster {
					mean = mean.Add(c)
				}
				res.Offsets[idx] = mean.Scale(1 / float64(len(cluster)))
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Recompute the rejected set against the final placement.
	res.Rejected = res.Rejected[:0]
	for _, m := range res.Matches {
		offA, okA := res.Offsets[m.A]
		offB, okB := res.Offsets[m.B]
		if !okA || !okB {
			continue
		}
		if offA.Add(m.Translation).Dist(offB) > tol {
			res.Rejected = append(res.Rejected, m)
		}
	}
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// unionFind is a weighted union-find where each element carries its
// translation offset relative to its parent.
type unionFind struct {
	parent []int
	off    []geom.Pt // off[i]: offset of i's origin expressed in parent[i]'s frame
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n), off: make([]geom.Pt, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// find returns the root of i and i's offset in the root frame, compressing
// paths as it goes.
func (u *unionFind) find(i int) (int, geom.Pt) {
	if u.parent[i] == i {
		return i, u.off[i]
	}
	root, parentOff := u.find(u.parent[i])
	u.parent[i] = root
	u.off[i] = u.off[i].Add(parentOff)
	return root, u.off[i]
}

// union applies the constraint offset(b) = offset(a) + t. It returns false
// when a and b are already connected and the existing placement disagrees
// with t by more than tol (the edge is inconsistent and must be dropped).
func (u *unionFind) union(a, b int, t geom.Pt, tol float64) bool {
	ra, offA := u.find(a)
	rb, offB := u.find(b)
	if ra == rb {
		return offA.Add(t).Dist(offB) <= tol
	}
	// Attach rb's tree under ra: offset(rb in ra frame) must satisfy
	// offB_new = offA + t, and every member of rb's tree shifts with it.
	u.parent[rb] = ra
	u.off[rb] = offA.Add(t).Sub(offB)
	return true
}

// GlobalTrajectories applies the aggregation offsets, returning the placed
// trajectories in the shared global frame.
func (r *Result) GlobalTrajectories(tracks []*Track) []*trajectory.Trajectory {
	out := make([]*trajectory.Trajectory, 0, len(r.Offsets))
	for idx, off := range r.Offsets {
		out = append(out, tracks[idx].Traj.Translate(off))
	}
	return out
}
