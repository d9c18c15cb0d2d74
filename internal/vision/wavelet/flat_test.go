package wavelet

import (
	"reflect"
	"testing"

	"crowdmap/internal/mathx"
)

func randomSignature(seed int64, size, k int) *Signature {
	rng := mathx.NewRNG(seed)
	s := &Signature{Size: size, Average: rng.Float64(), Coeffs: make(map[int]int8, k)}
	for len(s.Coeffs) < k {
		idx := 1 + rng.Intn(size*size-1)
		if rng.Intn(2) == 0 {
			s.Coeffs[idx] = 1
		} else {
			s.Coeffs[idx] = -1
		}
	}
	return s
}

// TestFlatSimilarityEqualsSimilarity is the bit-identity check the batched
// stage-1 scorer rests on: the merge join over flattened signatures must
// return exactly the float the map walk returns, for overlapping, disjoint,
// identical and empty signatures.
func TestFlatSimilarityEqualsSimilarity(t *testing.T) {
	var sigs []*Signature
	for seed := int64(0); seed < 6; seed++ {
		sigs = append(sigs, randomSignature(seed, 64, 10+int(seed)*13))
	}
	// Edge cases: empty, and a duplicate for exact identity.
	sigs = append(sigs, &Signature{Size: 64, Average: 0.5, Coeffs: map[int]int8{}})
	sigs = append(sigs, sigs[0])
	for i, a := range sigs {
		fa := a.Flatten()
		for j, b := range sigs {
			fb := b.Flatten()
			want, errWant := Similarity(a, b)
			got, errGot := SimilarityFlat(fa, fb)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("sig %d vs %d: error mismatch %v vs %v", i, j, errWant, errGot)
			}
			if got != want {
				t.Fatalf("sig %d vs %d: SimilarityFlat %v, Similarity %v", i, j, got, want)
			}
		}
	}
	// Size mismatch must error on both paths.
	other := randomSignature(99, 32, 8)
	if _, err := SimilarityFlat(sigs[0].Flatten(), other.Flatten()); err == nil {
		t.Error("want size-mismatch error from SimilarityFlat")
	}
}

// TestFlattenSortsAndPreservesSigns pins the Flat invariants the merge
// join assumes: ascending unique indices, matching signs, same length.
func TestFlattenSortsAndPreservesSigns(t *testing.T) {
	s := randomSignature(3, 64, 40)
	f := s.Flatten()
	if len(f.Idx) != len(s.Coeffs) || len(f.Sign) != len(s.Coeffs) {
		t.Fatalf("flatten lost coefficients: %d idx, %d sign, %d map", len(f.Idx), len(f.Sign), len(s.Coeffs))
	}
	for i, idx := range f.Idx {
		if i > 0 && f.Idx[i-1] >= idx {
			t.Fatalf("indices not strictly ascending at %d: %d then %d", i, f.Idx[i-1], idx)
		}
		if f.Sign[i] != s.Coeffs[int(idx)] {
			t.Fatalf("sign mismatch at idx %d: %d vs %d", idx, f.Sign[i], s.Coeffs[int(idx)])
		}
	}
	if f.Size != s.Size || f.Average != s.Average {
		t.Fatalf("flatten lost header: %+v", f)
	}
}

// TestFlatSignatureRoundTrip pins the inverse the localization index
// decodes with: Flatten then Signature restores the map form exactly, and
// a Flat whose slices disagree in length converts without panicking.
func TestFlatSignatureRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		s := randomSignature(seed, 64, 5+int(seed)*17)
		if got := s.Flatten().Signature(); !reflect.DeepEqual(got, s) {
			t.Fatalf("seed %d: round trip changed the signature", seed)
		}
	}
	short := &Flat{Size: 8, Idx: []int32{1, 2, 3}, Sign: []int8{1}}
	if got := short.Signature(); len(got.Coeffs) != 1 || got.Coeffs[1] != 1 {
		t.Fatalf("mismatched Flat converted to %v, want only index 1", got.Coeffs)
	}
}
