package mapserve

import (
	"encoding/gob"
	"io"
	"os"
	"os/exec"
	"regexp"
	"testing"

	"crowdmap/internal/cloud/store"
	"crowdmap/internal/vision/histogram"
	"crowdmap/internal/vision/surf"
)

// etagChildEnv marks the re-executed child of
// TestPublishETagIndependentOfProcessHistory.
const etagChildEnv = "CROWDMAP_ETAG_CHILD"

// TestPublishETagIndependentOfProcessHistory pins that a plan's ETag is a
// function of its content alone. Gob numbers types in the order a
// process first encodes them, and those numbers are part of the index
// bytes the ETag hashes; so the test re-executes its own binary, has the
// child gob-encode feature types before publishing the fixture, and
// requires the child to report this process's ETag.
func TestPublishETagIndependentOfProcessHistory(t *testing.T) {
	if os.Getenv(etagChildEnv) == "1" {
		type probe struct {
			SURF []surf.Feature
			Hist *histogram.Hist
		}
		if err := gob.NewEncoder(io.Discard).Encode(&probe{SURF: []surf.Feature{{}}, Hist: &histogram.Hist{}}); err != nil {
			t.Fatal(err)
		}
		v, err := newTestService(t, store.New()).Publish(fixBuilding, fixture(t).res)
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout.WriteString("etag=" + v.ETag + "\n")
		return
	}
	want, err := newTestService(t, store.New()).Publish(fixBuilding, fixture(t).res)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPublishETagIndependentOfProcessHistory$")
	cmd.Env = append(os.Environ(), etagChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`etag=([0-9a-f]+)`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("child reported no ETag:\n%s", out)
	}
	if got := string(m[1]); got != want.ETag {
		t.Errorf("after an unrelated gob encode the same content publishes as %.12s, want %.12s", got, want.ETag)
	}
}
