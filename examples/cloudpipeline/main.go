// Cloudpipeline: the full client→cloud round trip of the paper's Section
// IV prototype, on one machine. A crowd of simulated phones encodes
// capture archives and uploads them in 5 MB-style chunks to an in-process
// CrowdMap backend; the backend validates, stores, reconstructs, and
// publishes the floor plan to its read tier, from which the "user" then
// downloads it as SVG — the paper's "reconstructed building floor plan
// can be downloaded directly from the website".
//
//	go run ./examples/cloudpipeline
package main

import (
	"bytes"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"crowdmap"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/server"
	"crowdmap/internal/cloud/store"
)

func main() {
	log.SetFlags(0)

	// Cloud side: document store, read tier (the plan store) and the
	// ingestion server in front of both.
	st := store.New()
	maps, err := mapserve.New(st)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(st, server.WithMapServe(maps))
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("cloud backend listening at %s\n", ts.URL)

	// Client side: simulate the crowd and upload each session.
	building, err := crowdmap.BuildingByName("Lab2")
	if err != nil {
		log.Fatal(err)
	}
	ds, err := crowdmap.GenerateDataset(building, crowdmap.DatasetSpec{
		Users: 5, CorridorWalks: 10, RoomVisits: 5, NightFraction: 0.2, Seed: 7, FPS: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	var uploaded int64
	for _, c := range ds.Captures {
		archive, err := server.EncodeCapture(c)
		if err != nil {
			log.Fatalf("encode %s: %v", c.ID, err)
		}
		if err := server.UploadCapture(ts.Client(), ts.URL, c.ID, archive); err != nil {
			log.Fatalf("upload %s: %v", c.ID, err)
		}
		uploaded += int64(len(archive))
	}
	fmt.Printf("uploaded %d capture archives (%.1f MiB)\n",
		len(ds.Captures), float64(uploaded)/(1<<20))

	// Backend processing: pull everything back out of the store, decode,
	// reconstruct, publish the plan.
	var captures []*crowdmap.Capture
	for _, key := range st.Keys(server.CollCaptures) {
		data, _ := st.Get(server.CollCaptures, key)
		c, err := server.DecodeCapture(data)
		if err != nil {
			log.Fatalf("decode %s: %v", key, err)
		}
		captures = append(captures, c)
	}
	cfg := crowdmap.DefaultConfig()
	cfg.Layout.Hypotheses = 5000
	fmt.Println("backend reconstructing...")
	res, err := crowdmap.Reconstruct(captures, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The read tier stores the plan as one versioned record (vector JSON,
	// PNG, SVG and the localization index) under integrity envelopes,
	// verified on every read: rotten bytes are never served.
	v, err := maps.Publish(building.Name, res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan published as version %d: %d rooms, %d/%d tracks placed\n",
		v.Version, len(res.Plan.Rooms), len(res.Aggregation.Offsets), len(res.Tracks))

	// User side: download the published plan over HTTP.
	resp, err := ts.Client().Get(ts.URL + "/api/v1/buildings/" + building.Name + "/plan.svg")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		log.Fatal(err)
	}
	out := "downloaded_plan.svg"
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("downloaded %d-byte floor plan to %s\n", buf.Len(), out)

	// Score it, since we know the truth.
	rep, err := crowdmap.Evaluate(res, building)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("quality: %s\n", rep)
}
