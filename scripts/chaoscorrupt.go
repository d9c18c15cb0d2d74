//go:build ignore

// Chaoscorrupt flips one bit of a persisted document in a crowdmapd data
// directory — offline, through the WAL, so the damage is durable and
// replayed on the next boot exactly like real at-rest rot. The CI chaos
// smoke test uses it between daemon runs to prove the daemon detects,
// quarantines, and repairs the document (by default a building's
// read-tier plan record):
//
//	go run scripts/chaoscorrupt.go -data-dir /var/lib/crowdmap -coll mapserve -key Lab2/plan
//
// The daemon must not be running: the WAL dir is single-writer.
package main

import (
	"flag"
	"fmt"
	"os"

	"crowdmap/internal/cloud/store"
)

func main() {
	dataDir := flag.String("data-dir", "", "crowdmapd WAL data directory (required)")
	coll := flag.String("coll", "mapserve", "collection of the document to corrupt")
	key := flag.String("key", "Lab2/plan", "key of the document to corrupt")
	bit := flag.Uint("bit", 6, "bit to flip (0-7) at the document's midpoint")
	flag.Parse()
	if *dataDir == "" {
		fatal(fmt.Errorf("-data-dir is required"))
	}
	w, err := store.OpenWAL(*dataDir)
	if err != nil {
		fatal(err)
	}
	st := w.Store()
	raw, ok := st.Get(*coll, *key)
	if !ok {
		fatal(fmt.Errorf("no document %s/%s in %s", *coll, *key, *dataDir))
	}
	mut := append([]byte(nil), raw...)
	mut[len(mut)/2] ^= 1 << (*bit % 8)
	if err := st.Put(*coll, *key, mut); err != nil {
		fatal(err)
	}
	if err := w.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("corrupted %s/%s: flipped bit %d of byte %d/%d\n",
		*coll, *key, *bit%8, len(mut)/2, len(mut))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chaoscorrupt:", err)
	os.Exit(1)
}
