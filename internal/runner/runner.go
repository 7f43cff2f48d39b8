// Package runner is the experiment-execution subsystem: it runs a
// figure's (benchmark, config) items as a bounded parallel-for and
// observes every job they perform. Each item runs its jobs in order
// (compile, then simulate or analyze); the caller reduces the results
// in table order. Every job goes through one wrapper that waits for a
// worker slot, emits start/done/fail events, opens a job span and
// records Metrics (wall time split by kind, cache hit/miss counters,
// peak in-flight), both for a human progress log and for the JSON
// artifact. The first failure cancels the rest. A singleflight group
// (Flight) deduplicates concurrent identical work.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lpbuf/internal/obs"
)

// Kind classifies a job for the compile/simulate wall-time split in
// the metrics and the progress log.
type Kind string

// The experiment job kinds.
const (
	KindCompile  Kind = "compile"
	KindSimulate Kind = "simulate"
	KindAnalyze  Kind = "analyze"
	KindReduce   Kind = "reduce"
)

// Runner runs jobs on a bounded worker pool. The bound is global:
// concurrent Execute calls and jobs on the same Runner share one
// semaphore, so total in-flight jobs never exceed the worker bound.
//
// A job holds its worker slot only while its own function runs and
// never waits on another job, which is what makes the semaphore
// deadlock-free.
type Runner struct {
	workers int
	sem     chan struct{}
	metrics *Metrics
	onEvent func(Event)
	trace   *obs.Trace
}

// Option configures a Runner.
type Option func(*Runner)

// WithWorkers bounds in-flight jobs. Values below 1 keep the default
// (runtime.GOMAXPROCS(0)).
func WithWorkers(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.workers = n
		}
	}
}

// WithMetrics shares an external Metrics instance, so callers can fold
// their own cache counters into the same snapshot.
func WithMetrics(m *Metrics) Option {
	return func(r *Runner) {
		if m != nil {
			r.metrics = m
		}
	}
}

// WithObserver installs an event callback (see LogObserver). The
// callback may be invoked from multiple worker goroutines.
func WithObserver(fn func(Event)) Option {
	return func(r *Runner) { r.onEvent = fn }
}

// WithTrace records one span per job (kind, key, outcome) into the
// given trace. Nil disables job spans.
func WithTrace(t *obs.Trace) Option {
	return func(r *Runner) { r.trace = t }
}

// New creates a Runner. The default worker bound is GOMAXPROCS.
func New(opts ...Option) *Runner {
	r := &Runner{workers: runtime.GOMAXPROCS(0), metrics: NewMetrics()}
	for _, o := range opts {
		o(r)
	}
	r.sem = make(chan struct{}, r.workers)
	return r
}

// Execute calls item(ctx, i) for every i in [0, n) on at most
// worker-bound goroutines, handing out indices in order. The first item
// error cancels the context the others see, stops the hand-out, and
// is returned. Items run their work through Job.
func (r *Runner) Execute(ctx context.Context, n int, item func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Items not yet handed out count toward the queue-depth gauge;
	// whatever a cancelled execution never starts is dropped from it on
	// the way out.
	var next atomic.Int64
	r.metrics.enqueue(n)
	defer func() { r.metrics.unqueue(n - int(min(next.Load(), int64(n)))) }()

	var (
		errOnce sync.Once
		execErr error
		wg      sync.WaitGroup
	)
	for w := 0; w < min(r.workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				r.metrics.unqueue(1)
				if err := item(ctx, i); err != nil {
					errOnce.Do(func() { execErr = err; cancel() })
					return
				}
			}
		}()
	}
	wg.Wait()
	if execErr != nil {
		return execErr
	}
	return ctx.Err()
}

// Job runs fn as one observed job: it waits for a worker slot, emits
// EventStart, opens a "job.<kind>" span, records the job in Metrics
// and emits EventDone or EventFail. A job cancelled before it gets a
// slot never starts and returns ctx.Err(); a failure is returned as
// "<kind> <key>: <err>".
func (r *Runner) Job(ctx context.Context, kind Kind, key string, fn func() error) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case r.sem <- struct{}{}:
	}
	defer func() { <-r.sem }()
	if err := ctx.Err(); err != nil {
		return err
	}
	inFlight := r.metrics.jobStart()
	r.emit(Event{Type: EventStart, Key: key, Kind: kind, InFlight: inFlight})
	span := r.trace.StartSpan("job." + string(kind))
	span.SetAttr("key", key)
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	r.metrics.jobDone(kind, key, elapsed, err)
	span.SetAttr("ok", err == nil)
	span.End()
	if err != nil {
		r.emit(Event{Type: EventFail, Key: key, Kind: kind, Elapsed: elapsed, Err: err.Error()})
		return fmt.Errorf("%s %s: %w", kind, key, err)
	}
	r.emit(Event{Type: EventDone, Key: key, Kind: kind, Elapsed: elapsed})
	return nil
}

func (r *Runner) emit(e Event) {
	if r.onEvent == nil {
		return
	}
	e.Time = time.Now()
	r.onEvent(e)
}
