// Package wavelet implements the fast multiresolution image querying
// signature of Jacobs, Finkelstein & Salesin (SIGGRAPH 1995): a 2-D Haar
// wavelet decomposition truncated to the largest-magnitude coefficients,
// compared by counting sign agreements. It is the third cheap channel of
// CrowdMap's stage-1 key-frame comparison.
package wavelet

import (
	"fmt"
	"math"
	"sort"

	"crowdmap/internal/img"
)

// Signature is the truncated wavelet signature of an image.
type Signature struct {
	Size int // side length of the square transform (power of two)
	// Average is the overall image mean (the DC coefficient).
	Average float64
	// Coeffs maps coefficient index (y*Size+x) to its sign (+1 or -1) for
	// the top-K magnitude coefficients.
	Coeffs map[int]int8
}

// Params configures signature extraction.
type Params struct {
	Size int // transform size; image is resized to Size×Size (power of 2)
	TopK int // number of significant coefficients retained
}

// DefaultParams uses a 64×64 transform with 60 significant coefficients,
// close to the original paper's settings.
func DefaultParams() Params { return Params{Size: 64, TopK: 60} }

// Compute extracts the wavelet signature of a grayscale image.
func Compute(g *img.Gray, p Params) (*Signature, error) {
	if p.Size < 4 || p.Size&(p.Size-1) != 0 {
		return nil, fmt.Errorf("wavelet: size must be a power of two ≥ 4, got %d", p.Size)
	}
	if p.TopK < 1 {
		return nil, fmt.Errorf("wavelet: TopK must be ≥ 1, got %d", p.TopK)
	}
	sq := img.Resize(g, p.Size, p.Size)
	coeffs := haar2D(sq.Pix, p.Size)
	sig := &Signature{Size: p.Size, Average: coeffs[0], Coeffs: make(map[int]int8, p.TopK)}
	type kv struct {
		idx int
		mag float64
	}
	all := make([]kv, 0, p.Size*p.Size-1)
	for i := 1; i < len(coeffs); i++ {
		if coeffs[i] != 0 {
			all = append(all, kv{i, math.Abs(coeffs[i])})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mag > all[j].mag })
	k := p.TopK
	if k > len(all) {
		k = len(all)
	}
	for _, c := range all[:k] {
		if coeffs[c.idx] > 0 {
			sig.Coeffs[c.idx] = 1
		} else {
			sig.Coeffs[c.idx] = -1
		}
	}
	return sig, nil
}

// haar2D performs a full 2-D Haar transform (non-standard decomposition)
// of an n×n image, returning the coefficient array.
func haar2D(pix []float64, n int) []float64 {
	c := append([]float64(nil), pix...)
	tmp := make([]float64, n)
	// Transform rows then columns at each level.
	for length := n; length > 1; length /= 2 {
		half := length / 2
		for y := 0; y < length; y++ {
			for x := 0; x < half; x++ {
				a := c[y*n+2*x]
				b := c[y*n+2*x+1]
				tmp[x] = (a + b) / 2
				tmp[half+x] = (a - b) / 2
			}
			copy(c[y*n:y*n+length], tmp[:length])
		}
		for x := 0; x < length; x++ {
			for y := 0; y < half; y++ {
				a := c[(2*y)*n+x]
				b := c[(2*y+1)*n+x]
				tmp[y] = (a + b) / 2
				tmp[half+y] = (a - b) / 2
			}
			for y := 0; y < length; y++ {
				c[y*n+x] = tmp[y]
			}
		}
	}
	return c
}

// Flat is the sorted-slice form of a Signature, built once per key-frame
// for the batched stage-1 scorer: pairwise comparison becomes a merge join
// over two ascending index slices instead of per-pair map iteration and
// lookups. SimilarityFlat returns bit-identical scores to Similarity.
type Flat struct {
	Size    int
	Average float64
	Idx     []int32 // ascending coefficient indices
	Sign    []int8  // sign of the matching coefficient, +1 or -1
}

// Flatten converts the signature to its sorted-slice form.
func (s *Signature) Flatten() *Flat {
	f := &Flat{Size: s.Size, Average: s.Average,
		Idx: make([]int32, 0, len(s.Coeffs)), Sign: make([]int8, len(s.Coeffs))}
	for idx := range s.Coeffs {
		f.Idx = append(f.Idx, int32(idx))
	}
	sort.Slice(f.Idx, func(i, j int) bool { return f.Idx[i] < f.Idx[j] })
	for i, idx := range f.Idx {
		f.Sign[i] = s.Coeffs[int(idx)]
	}
	return f
}

// Signature converts the sorted-slice form back to the map form. It
// pairs indices and signs only as far as both slices reach, so a
// malformed decoded Flat cannot make it panic.
func (f *Flat) Signature() *Signature {
	s := &Signature{Size: f.Size, Average: f.Average, Coeffs: make(map[int]int8, len(f.Idx))}
	for i := 0; i < len(f.Idx) && i < len(f.Sign); i++ {
		s.Coeffs[int(f.Idx[i])] = f.Sign[i]
	}
	return s
}

// SimilarityFlat is Similarity over flattened signatures. The shared-
// coefficient and sign-agreement counts of the merge join are the same
// integers the map walk produces, so the returned score is bit-identical.
func SimilarityFlat(a, b *Flat) (float64, error) {
	if a.Size != b.Size {
		return 0, fmt.Errorf("wavelet: size mismatch %d vs %d", a.Size, b.Size)
	}
	shared, agree := 0, 0
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			shared++
			if a.Sign[i] == b.Sign[j] {
				agree++
			}
			i++
			j++
		}
	}
	union := len(a.Idx) + len(b.Idx) - shared
	var coeffScore float64
	if union > 0 {
		coeffScore = float64(agree) / float64(union)
	} else {
		coeffScore = 1
	}
	avgDiff := math.Abs(a.Average - b.Average)
	avgScore := 1 / (1 + 8*avgDiff)
	return 0.8*coeffScore + 0.2*avgScore, nil
}

// Similarity scores two signatures in [0, 1]: sign agreement on shared
// significant coefficients weighted against the union, with a penalty for
// differing overall brightness. 1 means visually near-identical.
func Similarity(a, b *Signature) (float64, error) {
	if a.Size != b.Size {
		return 0, fmt.Errorf("wavelet: size mismatch %d vs %d", a.Size, b.Size)
	}
	union := len(a.Coeffs)
	match := 0.0
	for idx, sa := range a.Coeffs {
		if sb, ok := b.Coeffs[idx]; ok {
			if sa == sb {
				match++
			}
		}
	}
	for idx := range b.Coeffs {
		if _, ok := a.Coeffs[idx]; !ok {
			union++
		}
	}
	var coeffScore float64
	if union > 0 {
		coeffScore = match / float64(union)
	} else {
		coeffScore = 1
	}
	avgDiff := math.Abs(a.Average - b.Average)
	avgScore := 1 / (1 + 8*avgDiff)
	return 0.8*coeffScore + 0.2*avgScore, nil
}
