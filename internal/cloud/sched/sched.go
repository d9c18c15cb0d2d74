// Package sched is crowdmapd's per-building job scheduler. Each building
// is an independent reconstruction job keyed by its corpus fingerprint:
// jobs run on a bounded worker pool, two jobs for the same building never
// run concurrently (per-building serialization), and marked buildings run
// in fair FIFO order so one huge building cannot starve the small ones.
// Whether a building needs a job at all is the caller's question: the
// scheduler keeps no record of what already ran, so a caller can redrive
// a building whose corpus did not change (a repair). This replaces the
// sequential all-buildings-per-cycle loop: with N workers, N buildings
// reconstruct concurrently while new uploads for other buildings queue
// behind them — the incremental-aggregation shape CrowdInside and
// Walk2Map describe for crowdsourced map construction.
//
// Lifecycle: New starts the workers, Mark enqueues a building with its
// current corpus fingerprint, Drain stops starting queued jobs and waits
// for in-flight ones (force-cancelling their context when its own context
// expires — jobs are expected to checkpoint via the pipeline journal and
// resume after restart), and Close releases the workers.
package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"crowdmap/internal/obs"
)

// Runner executes one building job. The context is cancelled when the
// scheduler closes or a drain deadline expires; runners are expected to
// honor it and checkpoint their progress.
type Runner func(ctx context.Context, building string) error

// jobState tracks one building's scheduling lifecycle. At most one of
// queued/running is true at a time: that is the per-building
// serialization invariant.
type jobState struct {
	queued  bool
	running bool
	// pending is the most recently Marked corpus fingerprint.
	pending string
	// ran is the fingerprint the current (or last) run started from.
	ran string
}

// Scheduler runs per-building jobs on a bounded worker pool. Create with
// New; Close must be called exactly once.
type Scheduler struct {
	run      Runner
	obs      *obs.Registry
	onResult func(building string, err error)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []string // FIFO of buildings awaiting a worker
	state    map[string]*jobState
	running  int
	draining bool
	closed   bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithObs attaches a metrics registry (sched.* counters/gauges and the
// sched.job.seconds histogram).
func WithObs(r *obs.Registry) Option { return func(s *Scheduler) { s.obs = r } }

// WithResultFunc installs a completion callback, invoked after every job
// (nil err on success). It runs on the worker goroutine; keep it cheap.
func WithResultFunc(fn func(building string, err error)) Option {
	return func(s *Scheduler) { s.onResult = fn }
}

// New starts a scheduler with the given worker count.
func New(workers int, run Runner, opts ...Option) (*Scheduler, error) {
	if workers < 1 {
		return nil, fmt.Errorf("sched: need at least one worker, got %d", workers)
	}
	if run == nil {
		return nil, fmt.Errorf("sched: nil runner")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		run:    run,
		state:  make(map[string]*jobState),
		ctx:    ctx,
		cancel: cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	for _, o := range opts {
		o(s)
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Mark enqueues a building with its current corpus fingerprint, unless
// it is already queued or running. A Mark during a run is coalesced: the
// building is re-enqueued once the run finishes if the Mark carried a
// different fingerprint from the one the run started with. Returns true
// when the call enqueued the building.
func (s *Scheduler) Mark(building, fingerprint string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return false
	}
	st := s.state[building]
	if st == nil {
		st = &jobState{}
		s.state[building] = st
	}
	st.pending = fingerprint
	if st.queued || st.running {
		// Per-building serialization: never two jobs for one building. The
		// completion path re-enqueues if the corpus moved during the run.
		s.obs.Counter("sched.jobs.coalesced").Inc()
		return false
	}
	s.enqueueLocked(building, st)
	return true
}

// enqueueLocked appends the building to the FIFO. Caller holds the lock.
func (s *Scheduler) enqueueLocked(building string, st *jobState) {
	st.queued = true
	s.queue = append(s.queue, building)
	s.obs.Counter("sched.jobs.enqueued").Inc()
	s.obs.Gauge("sched.queue.depth").Set(float64(len(s.queue)))
	s.cond.Signal()
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.closed && len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		building := s.queue[0]
		s.queue = s.queue[1:]
		s.obs.Gauge("sched.queue.depth").Set(float64(len(s.queue)))
		st := s.state[building]
		st.queued = false
		if s.draining {
			// Drain: queued-but-not-started jobs are abandoned; a restarted
			// daemon's first scan finds them still out of date and
			// re-enqueues them.
			s.cond.Broadcast()
			s.mu.Unlock()
			continue
		}
		st.running = true
		st.ran = st.pending
		s.running++
		s.obs.Gauge("sched.workers.busy").Set(float64(s.running))
		s.mu.Unlock()

		start := time.Now()
		err := s.run(s.ctx, building)
		s.obs.Histogram("sched.job.seconds").Observe(time.Since(start).Seconds())
		if err != nil {
			s.obs.Counter("sched.jobs.failed").Inc()
		} else {
			s.obs.Counter("sched.jobs.completed").Inc()
		}
		if s.onResult != nil {
			s.onResult(building, err)
		}

		s.mu.Lock()
		st.running = false
		s.running--
		s.obs.Gauge("sched.workers.busy").Set(float64(s.running))
		// The corpus moved while the job ran (coalesced Mark): run again with
		// the new fingerprint. A failed run with an unchanged corpus is NOT
		// hot-looped here; the next periodic Mark redrives it.
		if st.pending != st.ran && !s.draining && !s.closed {
			s.obs.Counter("sched.jobs.requeued").Inc()
			s.enqueueLocked(building, st)
		}
		s.cond.Broadcast() // wake Wait/Drain watchers
		s.mu.Unlock()
	}
}

// idleLocked reports whether no job is queued or running.
func (s *Scheduler) idleLocked() bool { return len(s.queue) == 0 && s.running == 0 }

// Wait blocks until the scheduler is idle (no queued or running jobs) or
// the context is cancelled.
func (s *Scheduler) Wait(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.idleLocked() && ctx.Err() == nil {
		s.cond.Wait()
	}
	return ctx.Err()
}

// Drain gracefully stops the scheduler's work: no new jobs start (queued
// jobs are abandoned), and in-flight jobs are given until
// ctx expires to finish. On expiry the job contexts are cancelled — jobs
// checkpoint through the pipeline journal, so a restarted daemon resumes
// them — and Drain reports the number of jobs it had to cut off via the
// returned error. Metrics: drain.started / drain.forced counters and the
// drain.seconds histogram.
func (s *Scheduler) Drain(ctx context.Context) error {
	start := time.Now()
	s.obs.Counter("drain.started").Inc()
	stop := context.AfterFunc(ctx, func() { s.cond.Broadcast() })
	defer stop()
	s.mu.Lock()
	s.draining = true
	abandoned := len(s.queue)
	s.cond.Broadcast() // wake workers so they discard the queue
	for s.running > 0 && ctx.Err() == nil {
		s.cond.Wait()
	}
	cut := s.running
	s.mu.Unlock()
	if cut > 0 {
		// Deadline expired with jobs still running: cancel them and wait for
		// the workers to observe it (Close does the final wg.Wait).
		s.obs.Counter("drain.forced").Inc()
		s.cancel()
	}
	s.obs.Histogram("drain.seconds").Observe(time.Since(start).Seconds())
	s.obs.Gauge("sched.queue.depth").Set(0)
	if cut > 0 {
		return fmt.Errorf("sched: drain deadline expired with %d jobs in flight (cancelled; %d queued jobs abandoned)", cut, abandoned)
	}
	return nil
}

// Close stops the workers and waits for them. In-flight jobs see their
// context cancelled; call Drain first for a graceful stop.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}
