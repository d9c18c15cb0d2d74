package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crowdmap/internal/obs"
)

// TestOverlappingBuildings is the concurrency acceptance test: with three
// marked buildings and two workers, two buildings are reconstructed
// concurrently (overlap observed), while no building ever runs twice at
// the same time.
func TestOverlappingBuildings(t *testing.T) {
	var mu sync.Mutex
	inflight := make(map[string]int)
	var cur, peak int32
	release := make(chan struct{})
	started := make(chan string, 16)

	run := func(ctx context.Context, b string) error {
		mu.Lock()
		inflight[b]++
		if inflight[b] > 1 {
			t.Errorf("building %s running %d times concurrently", b, inflight[b])
		}
		mu.Unlock()
		if n := atomic.AddInt32(&cur, 1); n > atomic.LoadInt32(&peak) {
			atomic.StoreInt32(&peak, n)
		}
		started <- b
		select {
		case <-release:
		case <-ctx.Done():
		}
		atomic.AddInt32(&cur, -1)
		mu.Lock()
		inflight[b]--
		mu.Unlock()
		return nil
	}

	reg := obs.New()
	s, err := New(2, run, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range []string{"Lab1", "Lab2", "Gym"} {
		if !s.Mark(b, "fp1") {
			t.Fatalf("Mark(%s) did not enqueue an idle building", b)
		}
	}
	// Two jobs must be in flight at once (two workers, three marked
	// buildings); the third waits in FIFO order.
	<-started
	<-started
	select {
	case b := <-started:
		t.Fatalf("third building %s started with only 2 workers", b)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if atomic.LoadInt32(&peak) < 2 {
		t.Errorf("peak concurrency %d, want >= 2 (no overlap observed)", peak)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["sched.jobs.completed"]; got != 3 {
		t.Errorf("sched.jobs.completed = %d, want 3", got)
	}
}

// TestPerBuildingSerialization hammers Mark on a single building while
// its job runs: the marks coalesce into at most one follow-up run, and
// the building never runs concurrently with itself.
func TestPerBuildingSerialization(t *testing.T) {
	var running, runs int32
	block := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	run := func(ctx context.Context, b string) error {
		if atomic.AddInt32(&running, 1) > 1 {
			t.Error("same building ran twice concurrently")
		}
		atomic.AddInt32(&runs, 1)
		once.Do(func() {
			close(first)
			<-block // hold the first run so the marks below land mid-run
		})
		atomic.AddInt32(&running, -1)
		return nil
	}
	reg := obs.New()
	s, err := New(4, run, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Mark("Lab1", "fp1")
	<-first
	for i := 0; i < 20; i++ {
		if s.Mark("Lab1", fmt.Sprintf("fp%d", i+2)) {
			t.Error("Mark enqueued a building that is already running")
		}
	}
	close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	// The 20 mid-run marks coalesce into exactly one requeued follow-up.
	if got := atomic.LoadInt32(&runs); got != 2 {
		t.Errorf("runs = %d, want 2 (initial + one coalesced requeue)", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["sched.jobs.coalesced"] == 0 {
		t.Error("sched.jobs.coalesced not incremented")
	}
	if got := snap.Counters["sched.jobs.requeued"]; got != 1 {
		t.Errorf("sched.jobs.requeued = %d, want 1", got)
	}
}

// TestFailedRunStaysDirty: a failed job is not requeued by the scheduler
// itself; the next Mark with the same corpus redrives it (the periodic
// scan is the retry loop), without a hot requeue loop.
func TestFailedRunStaysDirty(t *testing.T) {
	var runs int32
	boom := errors.New("boom")
	var gotErr error
	var mu sync.Mutex
	s, err := New(1, func(ctx context.Context, b string) error {
		if atomic.AddInt32(&runs, 1) == 1 {
			return boom
		}
		return nil
	}, WithResultFunc(func(b string, err error) {
		mu.Lock()
		if err != nil {
			gotErr = err
		}
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	s.Mark("Lab1", "fp1")
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("failed job reran without a Mark (%d runs)", got)
	}
	mu.Lock()
	if !errors.Is(gotErr, boom) {
		t.Errorf("result callback error = %v, want boom", gotErr)
	}
	mu.Unlock()
	if !s.Mark("Lab1", "fp1") {
		t.Error("failed building not redriven by same-fingerprint Mark")
	}
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&runs); got != 2 {
		t.Fatalf("runs = %d, want 2", got)
	}
}

// TestMarkRedrivesSameCorpus: the scheduler keeps no record of what
// already ran, so a Mark with the fingerprint of a successful run
// enqueues the building again — how a caller repairs lost artifacts of
// an unchanged corpus, as often as they are lost.
func TestMarkRedrivesSameCorpus(t *testing.T) {
	var runs int32
	s, err := New(1, func(ctx context.Context, b string) error {
		atomic.AddInt32(&runs, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for want := int32(1); want <= 3; want++ {
		if !s.Mark("Lab1", "fp1") {
			t.Fatalf("Mark %d did not enqueue an idle building", want)
		}
		if err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt32(&runs); got != want {
			t.Fatalf("runs = %d, want %d", got, want)
		}
	}
}

// TestFIFOOrder: marked buildings run in Mark order on one worker — a big
// building queued first does not let later marks jump ahead, and vice
// versa small buildings queued first are not starved by a later big one.
func TestFIFOOrder(t *testing.T) {
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	s, err := New(1, func(ctx context.Context, b string) error {
		<-gate
		mu.Lock()
		order = append(order, b)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := []string{"b0", "b1", "b2", "b3"}
	for _, b := range want {
		s.Mark(b, "fp")
	}
	for range want {
		gate <- struct{}{}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, b := range want {
		if order[i] != b {
			t.Fatalf("run order %v, want %v", order, want)
		}
	}
}

// TestDrainFinishesInflightAndAbandonsQueue: Drain lets the running job
// finish and never starts the queued one.
func TestDrainFinishesInflightAndAbandonsQueue(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var runs int32
	reg := obs.New()
	s, err := New(1, func(ctx context.Context, b string) error {
		atomic.AddInt32(&runs, 1)
		close(started)
		<-release
		return nil
	}, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	s.Mark("big", "fp1")
	<-started
	s.Mark("small", "fp1") // queued behind the running job
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Drain(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Drain set the draining flag
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	s.Close()
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("runs = %d, want 1 (queued job must not start during drain)", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["drain.started"] != 1 {
		t.Error("drain.started not incremented")
	}
	if snap.Counters["drain.forced"] != 0 {
		t.Error("graceful drain counted as forced")
	}
}

// TestDrainDeadlineCancelsJobs: a job that outlives the drain deadline
// has its context cancelled and Drain reports the cutoff.
func TestDrainDeadlineCancelsJobs(t *testing.T) {
	started := make(chan struct{})
	reg := obs.New()
	s, err := New(1, func(ctx context.Context, b string) error {
		close(started)
		<-ctx.Done() // honor cancellation, as real jobs do
		return ctx.Err()
	}, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	s.Mark("stuck", "fp1")
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with a stuck job returned nil")
	}
	s.Close()
	if reg.Snapshot().Counters["drain.forced"] != 1 {
		t.Error("drain.forced not incremented")
	}
}
