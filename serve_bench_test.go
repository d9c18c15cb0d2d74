// Read-tier ratchets: publishing a reconstructed building into a
// WAL-backed store, and answering locate queries against it. They live in
// the external test package because internal/cloud/mapserve imports this
// one.
package crowdmap_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"crowdmap"
	"crowdmap/internal/cloud/mapserve"
	"crowdmap/internal/cloud/store"
	"crowdmap/internal/img"
	"crowdmap/internal/world"
)

const serveBuilding = "Lab2"

var (
	serveOnce    sync.Once
	serveRes     *crowdmap.Result
	serveQueries []*img.RGB
	serveErr     error
)

// serveFixture reconstructs a fixed-seed Lab2 survey (five corridor walks
// and two room visits, the shape of crowdbench's base survey) and draws a
// fixed query set from held-out walks of the same building: every other
// frame of two walks by other users, at most 40 frames. Built once, shared
// read-only by both benchmarks.
func serveFixture(b *testing.B) (*crowdmap.Result, []*img.RGB) {
	b.Helper()
	serveOnce.Do(func() {
		survey, err := crowdmap.GenerateDataset(world.Lab2(), crowdmap.DatasetSpec{
			Users: 5, CorridorWalks: 5, RoomVisits: 2, Seed: 2015,
		})
		if err != nil {
			serveErr = err
			return
		}
		cfg := crowdmap.DefaultConfig()
		cfg.Seed = 7
		if serveRes, serveErr = crowdmap.Reconstruct(survey.Captures, cfg); serveErr != nil {
			return
		}
		heldOut, err := crowdmap.GenerateDataset(world.Lab2(), crowdmap.DatasetSpec{
			Users: 3, CorridorWalks: 2, Seed: 2016, FPS: 2,
		})
		if err != nil {
			serveErr = err
			return
		}
		for _, c := range heldOut.Captures {
			for i := 0; i < len(c.Frames) && len(serveQueries) < 40; i += 2 {
				serveQueries = append(serveQueries, c.Frames[i].Image)
			}
		}
	})
	if serveErr != nil {
		b.Fatal(serveErr)
	}
	return serveRes, serveQueries
}

// BenchmarkPublish times mapserve.Publish of the survey's reconstruction
// into a fresh WAL-backed store (fsync on every append, as crowdmapd
// ships): plan renders, index build and encode, the durable writes, and
// the cache seeding at the swap. Opening and closing the WAL are untimed.
func BenchmarkPublish(b *testing.B) {
	res, _ := serveFixture(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		wal, err := store.OpenWAL(filepath.Join(dir, fmt.Sprint(i)))
		if err != nil {
			b.Fatal(err)
		}
		ms, err := mapserve.New(wal.Store())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := ms.Publish(serveBuilding, res); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := wal.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkLocate times one pass of the fixed query set against the
// published survey (ns/op covers the whole set) and reports the per-query
// p50 and p99 latencies over every pass. The service is warmed by one
// untimed locate, so the figures are steady-state, not a cold index load.
func BenchmarkLocate(b *testing.B) {
	res, queries := serveFixture(b)
	ms, err := mapserve.New(store.New())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ms.Publish(serveBuilding, res); err != nil {
		b.Fatal(err)
	}
	if _, err := ms.Locate(serveBuilding, queries[0], nil); err != nil {
		b.Fatal(err)
	}
	lat := make([]float64, 0, b.N*len(queries))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			t := time.Now()
			if _, err := ms.Locate(serveBuilding, q, nil); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, float64(time.Since(t))/1e6)
		}
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(lat[len(lat)/2], "p50-ms")
	b.ReportMetric(lat[(len(lat)*99)/100], "p99-ms")
}
