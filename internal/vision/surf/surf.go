// Package surf implements a pure-Go SURF-style interest point detector and
// descriptor (Bay, Tuytelaars & Van Gool, ECCV 2006): a Fast-Hessian
// detector built on integral-image box filters, an upright 64-dimensional
// Haar-response descriptor, and the mutual-nearest-neighbor matcher of the
// paper's Algorithm 1 with its S2 similarity score. It is the precise
// (stage-2) key-frame comparison of CrowdMap's indoor path modeling module.
package surf

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"crowdmap/internal/img"
)

// Keypoint is a detected interest point.
type Keypoint struct {
	X, Y     float64 // pixel coordinates
	Scale    float64 // detection scale (σ)
	Response float64 // Hessian determinant response
	// Laplacian is the sign (±1) of the box-filter Laplacian trace
	// Dxx+Dyy at the detection, distinguishing bright blobs on dark
	// background from dark blobs on bright background. Matching indexes
	// bucket on it, as the original SURF implementation does.
	Laplacian int8
}

// Descriptor is the 64-dimensional upright SURF descriptor.
type Descriptor [64]float64

// Feature couples a keypoint with its descriptor.
//
// Features are persisted verbatim (gob) by the localization-index codec
// in internal/cloud/mapserve, which rebuilds the derived Index with
// NewIndex on decode. Field changes here change that encoding — and the
// read tier's content ETags — so they must come with a re-publish story,
// not a silent format break.
type Feature struct {
	KP   Keypoint
	Desc Descriptor
}

// Params configures detection.
type Params struct {
	// HessianThreshold discards weak blobs; higher = fewer, stronger points.
	HessianThreshold float64
	// MaxFeatures caps the number of returned features (strongest first);
	// 0 means unlimited.
	MaxFeatures int
}

// DefaultParams matches the tuning used throughout CrowdMap.
func DefaultParams() Params {
	return Params{HessianThreshold: 1e-4, MaxFeatures: 120}
}

// filter sizes of the first Fast-Hessian octave plus the start of the
// second; scale σ = 1.2·L/9.
var filterSizes = []int{9, 15, 21, 27, 39}

// respPool recycles the per-scale Hessian response planes: Detect runs
// once per kept key-frame, and each run needs len(filterSizes) planes of
// W×H float64 that die immediately after non-maximum suppression.
var respPool = sync.Pool{New: func() any { return new([][]float64) }}

// Detect finds interest points in a grayscale image.
func Detect(g *img.Gray, p Params) []Keypoint {
	it := img.AcquireIntegral(g)
	defer img.ReleaseIntegral(it)
	return detectIntegral(it, p)
}

// detectIntegral is Detect over a prebuilt summed-area table, so Extract
// can share one table between detection and description.
func detectIntegral(it *img.Integral, p Params) []Keypoint {
	n := len(filterSizes)
	// Response maps per scale, from the pool; hessianResponsesInto fully
	// overwrites each plane.
	respp := respPool.Get().(*[][]float64)
	defer respPool.Put(respp)
	resp := *respp
	if cap(resp) < n {
		resp = make([][]float64, n)
	}
	resp = resp[:n]
	for s, L := range filterSizes {
		if cap(resp[s]) < it.W*it.H {
			resp[s] = make([]float64, it.W*it.H)
		}
		resp[s] = resp[s][:it.W*it.H]
		hessianResponsesInto(resp[s], it, L)
	}
	*respp = resp
	w, h := it.W, it.H
	var kps []Keypoint
	// Non-maximum suppression over 3×3×3 neighborhoods; border cells of the
	// scale axis cannot be maxima.
	for s := 1; s < n-1; s++ {
		border := filterSizes[s+1]/2 + 1
		for y := border; y < h-border; y++ {
			for x := border; x < w-border; x++ {
				v := resp[s][y*w+x]
				if v < p.HessianThreshold {
					continue
				}
				if !isLocalMax(resp, w, x, y, s, v) {
					continue
				}
				kps = append(kps, Keypoint{
					X: float64(x), Y: float64(y),
					Scale:     1.2 * float64(filterSizes[s]) / 9,
					Response:  v,
					Laplacian: laplacianSign(it, x, y, filterSizes[s]),
				})
			}
		}
	}
	sort.Slice(kps, func(i, j int) bool { return kps[i].Response > kps[j].Response })
	if p.MaxFeatures > 0 && len(kps) > p.MaxFeatures {
		kps = kps[:p.MaxFeatures]
	}
	return kps
}

func isLocalMax(resp [][]float64, w, x, y, s int, v float64) bool {
	for ds := -1; ds <= 1; ds++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if ds == 0 && dy == 0 && dx == 0 {
					continue
				}
				if resp[s+ds][(y+dy)*w+x+dx] >= v {
					return false
				}
			}
		}
	}
	return true
}

// hessianResponsesInto computes the approximated Hessian determinant at
// every pixel for one box-filter size L, writing into out (len W*H). The
// border region is only ever cleared, so a recycled plane carries no stale
// responses.
func hessianResponsesInto(out []float64, it *img.Integral, L int) {
	w, h := it.W, it.H
	clear(out)
	l := L / 3       // lobe
	b := (L - 1) / 2 // border
	inv := 1 / float64(L*L)
	for y := b; y < h-b; y++ {
		for x := b; x < w-b; x++ {
			// Dxx: full horizontal band minus 3× the middle third.
			dxx := boxSum(it, x-b, y-l+1, L, 2*l-1) - 3*boxSum(it, x-l/2, y-l+1, l, 2*l-1)
			// Dyy: transposed.
			dyy := boxSum(it, x-l+1, y-b, 2*l-1, L) - 3*boxSum(it, x-l+1, y-l/2, 2*l-1, l)
			// Dxy: four diagonal lobes.
			dxy := boxSum(it, x+1, y-l, l, l) + boxSum(it, x-l, y+1, l, l) -
				boxSum(it, x-l, y-l, l, l) - boxSum(it, x+1, y+1, l, l)
			dxx *= inv
			dyy *= inv
			dxy *= inv
			det := dxx*dyy - 0.81*dxy*dxy
			if det > 0 {
				out[y*w+x] = det
			}
		}
	}
}

// boxSum sums a (cols × rows) box with top-left corner (x, y).
func boxSum(it *img.Integral, x, y, cols, rows int) float64 {
	return it.BoxSum(x, y, x+cols, y+rows)
}

// laplacianSign evaluates the sign of the box-filter trace Dxx+Dyy at
// (x, y) for filter size L, using the same lobes as hessianResponses.
func laplacianSign(it *img.Integral, x, y, L int) int8 {
	l := L / 3
	b := (L - 1) / 2
	dxx := boxSum(it, x-b, y-l+1, L, 2*l-1) - 3*boxSum(it, x-l/2, y-l+1, l, 2*l-1)
	dyy := boxSum(it, x-l+1, y-b, 2*l-1, L) - 3*boxSum(it, x-l+1, y-l/2, 2*l-1, l)
	if dxx+dyy < 0 {
		return -1
	}
	return 1
}

// Describe computes upright SURF descriptors for keypoints. Keypoints whose
// sampling window leaves the image are dropped, so the returned slice may
// be shorter than the input.
func Describe(g *img.Gray, kps []Keypoint) []Feature {
	it := img.AcquireIntegral(g)
	defer img.ReleaseIntegral(it)
	return describeIntegral(it, kps)
}

func describeIntegral(it *img.Integral, kps []Keypoint) []Feature {
	out := make([]Feature, 0, len(kps))
	for _, kp := range kps {
		d, ok := describeOne(it, kp)
		if !ok {
			continue
		}
		out = append(out, Feature{KP: kp, Desc: d})
	}
	return out
}

// Extract runs detection and description in one call, building the
// summed-area table once and sharing it between the two stages.
func Extract(g *img.Gray, p Params) []Feature {
	it := img.AcquireIntegral(g)
	defer img.ReleaseIntegral(it)
	return describeIntegral(it, detectIntegral(it, p))
}

func describeOne(it *img.Integral, kp Keypoint) (Descriptor, bool) {
	s := kp.Scale
	var desc Descriptor
	step := s // sample spacing
	haar := int(math.Round(2 * s))
	if haar < 2 {
		haar = 2
	}
	// 4×4 subregions, each 5×5 samples: offsets -10..9 around the point.
	idx := 0
	var norm float64
	for sy := 0; sy < 4; sy++ {
		for sx := 0; sx < 4; sx++ {
			var sumDx, sumAbsDx, sumDy, sumAbsDy float64
			for iy := 0; iy < 5; iy++ {
				for ix := 0; ix < 5; ix++ {
					ox := (float64(sx*5+ix) - 10 + 0.5) * step
					oy := (float64(sy*5+iy) - 10 + 0.5) * step
					px := int(math.Round(kp.X + ox))
					py := int(math.Round(kp.Y + oy))
					if px-haar < 0 || px+haar >= it.W || py-haar < 0 || py+haar >= it.H {
						return desc, false
					}
					// Gaussian weight centered on the keypoint.
					r2 := (ox*ox + oy*oy) / (s * s)
					wgt := math.Exp(-r2 / (2 * 3.3 * 3.3))
					dx := wgt * haarX(it, px, py, haar)
					dy := wgt * haarY(it, px, py, haar)
					sumDx += dx
					sumDy += dy
					sumAbsDx += math.Abs(dx)
					sumAbsDy += math.Abs(dy)
				}
			}
			desc[idx] = sumDx
			desc[idx+1] = sumAbsDx
			desc[idx+2] = sumDy
			desc[idx+3] = sumAbsDy
			norm += sumDx*sumDx + sumAbsDx*sumAbsDx + sumDy*sumDy + sumAbsDy*sumAbsDy
			idx += 4
		}
	}
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		return desc, false
	}
	for i := range desc {
		desc[i] /= norm
	}
	return desc, true
}

// haarX is the horizontal Haar wavelet response of size 2r at (x, y).
func haarX(it *img.Integral, x, y, r int) float64 {
	return it.BoxSum(x, y-r, x+r, y+r) - it.BoxSum(x-r, y-r, x, y+r)
}

// haarY is the vertical Haar wavelet response of size 2r at (x, y).
func haarY(it *img.Integral, x, y, r int) float64 {
	return it.BoxSum(x-r, y, x+r, y+r) - it.BoxSum(x-r, y-r, x+r, y)
}

// Dist returns the Euclidean distance between two descriptors.
func Dist(a, b Descriptor) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// MatchPair is a mutual-nearest-neighbor match between feature indices.
type MatchPair struct {
	I, J int     // indices into the two feature sets
	D    float64 // descriptor distance
}

// Match implements the paper's Algorithm 1: for every feature f1 in a, find
// its nearest neighbor f2 in b; accept the pair when f1 is also f2's
// nearest neighbor in a and their distance is below hd.
func Match(a, b []Feature, hd float64) []MatchPair {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	nnAB := make([]int, len(a))
	for i := range a {
		nnAB[i] = nearest(a[i].Desc, b)
	}
	nnBA := make([]int, len(b))
	for j := range b {
		nnBA[j] = nearest(b[j].Desc, a)
	}
	var out []MatchPair
	for i, j := range nnAB {
		if nnBA[j] != i {
			continue
		}
		if d := Dist(a[i].Desc, b[j].Desc); d < hd {
			out = append(out, MatchPair{I: i, J: j, D: d})
		}
	}
	return out
}

func nearest(d Descriptor, fs []Feature) int {
	best := 0
	bestD := math.Inf(1)
	for i := range fs {
		if dd := Dist(d, fs[i].Desc); dd < bestD {
			bestD = dd
			best = i
		}
	}
	return best
}

// Similarity computes the paper's S2 score (equation 1):
// |A| / |F1 ∪ F2| with |F1 ∪ F2| = |F1| + |F2| − |A|.
func Similarity(a, b []Feature, hd float64) (float64, error) {
	if len(a) == 0 && len(b) == 0 {
		return 0, fmt.Errorf("surf: both feature sets empty")
	}
	matches := Match(a, b, hd)
	union := len(a) + len(b) - len(matches)
	if union <= 0 {
		return 0, fmt.Errorf("surf: degenerate union size %d", union)
	}
	return float64(len(matches)) / float64(union), nil
}
