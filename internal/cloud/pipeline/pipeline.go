// Package pipeline is CrowdMap's data-parallel processing layer — the
// stand-in for the PySpark stage the paper uses to "accelerate the process
// of user trajectories aggregation". It provides bounded-parallelism map
// primitives over index spaces and unordered pairs, which is precisely the
// shape of the aggregation workload (all-pairs key-frame comparison). It
// also provides the stage-checkpoint Journal (checkpoint.go): persisted
// stage completion records whose payload (the pair decisions) lets a
// restarted daemon resume a job instead of recomputing it.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"crowdmap/internal/obs"
)

// Map runs fn(ctx, i) for i in [0, n) on at most workers goroutines.
// The first error cancels the remaining work and is returned. A panic
// inside fn is recovered into a *PanicError (counted on
// pipeline.panic.recovered) and treated as that item's error — a poisoned
// item fails the map, never the process. Use MapAll when sibling items
// should keep running past a failure.
//
// When the context carries a metrics registry (obs.NewContext), Map counts
// pipeline.items (completed calls) and pipeline.errors, and honors the
// soft stage budget set by WithSoftBudget.
func Map(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n < 0 {
		return fmt.Errorf("pipeline: negative item count %d", n)
	}
	if fn == nil {
		return fmt.Errorf("pipeline: nil function")
	}
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	reg := obs.FromContext(ctx)
	items := reg.Counter("pipeline.items")
	errors := reg.Counter("pipeline.errors")
	defer watchBudget(ctx, reg)()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					return
				}
				if err := safeCall(ctx, reg, fn, i); err != nil {
					errors.Inc()
					fail(err)
					return
				}
				items.Inc()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Pair is an unordered index pair with I < J.
type Pair struct{ I, J int }

// Pairs enumerates all unordered pairs over n items.
func Pairs(n int) []Pair {
	if n < 2 {
		return nil
	}
	out := make([]Pair, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Pair{i, j})
		}
	}
	return out
}

// MapPairs runs fn over all unordered pairs of [0, n) with bounded
// parallelism; results are collected by the caller inside fn (which must
// be goroutine-safe for distinct pairs).
func MapPairs(ctx context.Context, n, workers int, fn func(ctx context.Context, p Pair) error) error {
	pairs := Pairs(n)
	return Map(ctx, len(pairs), workers, func(ctx context.Context, i int) error {
		return fn(ctx, pairs[i])
	})
}
