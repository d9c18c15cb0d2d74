package mapserve

import (
	"errors"
	"testing"

	"crowdmap/internal/vision/wavelet"
)

// fuzzCorruptions derives the standard corruption seeds from one valid
// encoding: truncations at both codec layers, a bit flip, a sheared gzip
// header, and garbage that is not gzip at all.
func fuzzCorruptions(valid []byte) [][]byte {
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	return [][]byte{
		valid,
		valid[:1],
		valid[:len(valid)/2],
		valid[:len(valid)-1],
		append([]byte(nil), valid[2:]...),
		flipped,
		{},
		[]byte("\x1f\x8b\x08"),
		[]byte("PK\x03\x04 not a mapserve artifact"),
	}
}

// FuzzDecodePlanRecord pins the plan-record codec contract: decoding
// never panics, and every failure is the typed *CodecError the read tier
// quarantines on.
func FuzzDecodePlanRecord(f *testing.F) {
	valid, err := encodePlanRecord(&planRecord{
		Building: "fuzz", Version: 3, ETag: "abc123",
		JSON: []byte(`{"building":"fuzz"}`), PNG: []byte{0x89, 'P', 'N', 'G'},
		IndexKey: "fuzz/index@abc123",
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range fuzzCorruptions(valid) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodePlanRecord(data)
		if err != nil {
			var ce *CodecError
			if !errors.As(err, &ce) {
				t.Fatalf("decode failure has type %T (%v), want *CodecError", err, err)
			}
			return
		}
		if rec == nil {
			t.Fatal("nil record with nil error")
		}
	})
}

// FuzzDecodeLocIndex pins the same contract for the localization-index
// codec, whose decode additionally rebuilds derived per-key-frame
// structures.
func FuzzDecodeLocIndex(f *testing.F) {
	valid, err := encodeLocIndex(&locArtifact{
		Params: "fuzz-params",
		KFs: []locKF{{
			TrackID: "t0", Heading: 0.5,
			Wavelet: &wavelet.Flat{Size: 8, Average: 0.25, Idx: []int32{1, 5}, Sign: []int8{1, -1}},
		}},
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range fuzzCorruptions(valid) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := decodeLocIndex(data)
		if err != nil {
			var ce *CodecError
			if !errors.As(err, &ce) {
				t.Fatalf("decode failure has type %T (%v), want *CodecError", err, err)
			}
			return
		}
		if idx == nil || len(idx.kfs) != len(idx.poses) {
			t.Fatal("inconsistent index with nil error")
		}
		for i, kf := range idx.kfs {
			if kf == nil || kf.SURFIndex == nil {
				t.Fatalf("key-frame %d decoded without rebuilt derived structures", i)
			}
		}
	})
}
