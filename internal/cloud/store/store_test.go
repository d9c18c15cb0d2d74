package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if err := s.Put("c", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("c", "k")
	if !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	s.Delete("c", "k")
	if _, ok := s.Get("c", "k"); ok {
		t.Error("deleted key still present")
	}
	s.Delete("c", "missing") // no-op
	if _, ok := s.Get("nope", "k"); ok {
		t.Error("missing collection should miss")
	}
}

// TestSumFollowsWrites: Sum is the digest of the current document, a
// write or delete drops the cached digest, and a replayed WAL store sums
// what it recovered.
func TestSumFollowsWrites(t *testing.T) {
	hexSum := func(v string) string {
		h := sha256.Sum256([]byte(v))
		return hex.EncodeToString(h[:])
	}
	w, err := OpenWAL(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := w.Store()
	if _, ok := s.Sum("c", "k"); ok {
		t.Error("Sum of a missing document reported ok")
	}
	for _, v := range []string{"one", "two", ""} {
		if err := s.Put("c", "k", []byte(v)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // computed, then cached
			if got, ok := s.Sum("c", "k"); !ok || got != hexSum(v) {
				t.Errorf("Sum after Put(%q) = %.12s, %v; want %.12s", v, got, ok, hexSum(v))
			}
		}
	}
	if err := s.Put("c", "k", []byte("three")); err != nil {
		t.Fatal(err)
	}
	dir := w.dir
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got, _ := w2.Store().Sum("c", "k"); got != hexSum("three") {
		t.Errorf("Sum after replay = %.12s, want %.12s", got, hexSum("three"))
	}
	if err := w2.Store().Delete("c", "k"); err != nil {
		t.Fatal(err)
	}
	if _, ok := w2.Store().Sum("c", "k"); ok {
		t.Error("Sum of a deleted document reported ok")
	}
}

func TestPutValidation(t *testing.T) {
	s := New()
	if err := s.Put("", "k", nil); err == nil {
		t.Error("empty collection should error")
	}
	if err := s.Put("c", "", nil); err == nil {
		t.Error("empty key should error")
	}
}

func TestValueIsolation(t *testing.T) {
	s := New()
	v := []byte("abc")
	if err := s.Put("c", "k", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 'X'
	got, _ := s.Get("c", "k")
	if string(got) != "abc" {
		t.Error("Put must copy the value")
	}
	got[0] = 'Y'
	again, _ := s.Get("c", "k")
	if string(again) != "abc" {
		t.Error("Get must return a copy")
	}
}

func TestKeysSortedAndLen(t *testing.T) {
	s := New()
	for _, k := range []string{"b", "a", "c"} {
		if err := s.Put("c", k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Keys("c"); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v", got)
	}
	if s.Len("c") != 3 {
		t.Errorf("Len = %d", s.Len("c"))
	}
	if got := s.Collections(); !reflect.DeepEqual(got, []string{"c"}) {
		t.Errorf("Collections = %v", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := New()
	_ = s.Put("a", "k1", []byte{1, 2, 3})
	_ = s.Put("b", "k2", []byte("hello"))
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("a", "k1")
	if !ok || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("restored a/k1 = %v, %v", got, ok)
	}
	got, _ = s2.Get("b", "k2")
	if string(got) != "hello" {
		t.Errorf("restored b/k2 = %q", got)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	s := New()
	_ = s.Put("c", "k", []byte("v"))
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get("c", "k"); !ok || string(got) != "v" {
		t.Errorf("file round trip = %q, %v", got, ok)
	}
	if err := s2.LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing snapshot should error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := New()
	if err := s.Load(bytes.NewBufferString("{not json")); err == nil {
		t.Error("garbage snapshot should error")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w))
			next := string(rune('a' + (w+1)%8)) // another writer's key
			for i := 0; i < 100; i++ {
				_ = s.Put("c", key, []byte{byte(i)})
				s.Get("c", key)
				s.Keys("c")
				s.Sum("c", next)
			}
		}(w)
	}
	wg.Wait()
	if s.Len("c") != 8 {
		t.Errorf("Len = %d after concurrent writes", s.Len("c"))
	}
	// No digest computed while its document was being replaced outlives
	// the replacement.
	want := sha256.Sum256([]byte{99})
	for w := 0; w < 8; w++ {
		if got, _ := s.Sum("c", string(rune('a'+w))); got != hex.EncodeToString(want[:]) {
			t.Errorf("Sum(%c) = %.12s after concurrent writes, want the last value's", 'a'+w, got)
		}
	}
}
