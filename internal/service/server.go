package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"lpbuf/internal/experiments"
	"lpbuf/internal/obs"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/runner"
	"lpbuf/internal/service/store"
)

// TraceHeader is the request header propagating a client trace context
// into a job; the submit response echoes it back.
const TraceHeader = "X-Lpbuf-Trace"

// Per-job trace sink bounds. A full -all job emits a few hundred spans
// and the sim ring only needs the tail for the viewer, so these keep a
// busy daemon's per-job overhead small and fixed.
const (
	jobTraceEvents = 1 << 14
	jobSimRing     = 1 << 12
)

// Job is one submitted experiment job. Its mutable state is guarded by
// mu; the done channel closes exactly once when the job reaches a
// terminal state.
type Job struct {
	id      string
	client  string
	spec    JobSpec // normalized
	key     string
	traceID string
	hub     *eventHub
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}

	// scope is the job's private observability context: its own span
	// tree and sim ring (served at /v1/jobs/{id}/trace) plus a child
	// registry folded into the service registry at the terminal state.
	scope     *obs.Scope
	rootSpan  *obs.Span
	queueSpan *obs.Span

	mu         sync.Mutex
	state      State
	cacheHit   bool
	shared     bool
	errMsg     string
	queuedAt   time.Time
	startedAt  time.Time
	finishedAt time.Time
	// Process-wide CPU/alloc samples taken when execution started;
	// zero-valued until then (sampled distinguishes a real zero).
	sampled     bool
	startCPU    int64
	startAllocs uint64
	// res is the final resource accounting, computed once at the
	// terminal transition.
	res *JobResources
	// simprofile is the job's sampled guest-PMU document, captured when
	// this job's own build ran (store hits and inflight-dedup followers
	// never executed a simulation, so they carry none). Kept on the job
	// rather than in the store artifact: the artifact must stay a pure
	// function of (spec, machine) while sampling is a property of the run.
	simprofile *pmu.Document
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Key returns the job's content-address key.
func (j *Job) Key() string { return j.key }

// TraceID returns the job's trace context (client-propagated or
// generated at admission).
func (j *Job) TraceID() string { return j.traceID }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// SimProfile returns the job's sampled guest-PMU document, or nil when
// the job never executed its own simulation (store hit, inflight-dedup
// follower, canceled before the build finished).
func (j *Job) SimProfile() *pmu.Document {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.simprofile
}

// Status snapshots the job as a lpbuf.jobstatus/v1 value.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		Schema:   StatusSchema,
		ID:       j.id,
		State:    j.state,
		Key:      j.key,
		Spec:     j.spec,
		CacheHit: j.cacheHit,
		Shared:   j.shared,
		Error:    j.errMsg,
		TraceID:  j.traceID,
	}
	if !j.queuedAt.IsZero() {
		st.QueuedAt = j.queuedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.startedAt.IsZero() {
		st.StartedAt = j.startedAt.UTC().Format(time.RFC3339Nano)
	}
	if !j.finishedAt.IsZero() {
		st.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339Nano)
	}
	if j.state == StateDone {
		st.ArtifactURL = "/v1/jobs/" + j.id + "/artifact"
	}
	if j.scope.Trace() != nil {
		st.TraceURL = "/v1/jobs/" + j.id + "/trace"
	}
	if j.simprofile != nil {
		st.SimProfileURL = "/v1/jobs/" + j.id + "/simprofile"
		cfg := j.simprofile.Sampling
		st.Sampling = &cfg
	}
	if j.res != nil {
		r := *j.res
		st.Resources = &r
	}
	return st
}

// resourcesLocked computes the job's resource accounting, called once
// under j.mu as the job reaches its terminal state (so the CPU/alloc
// deltas close exactly at the execution window's end).
func (j *Job) resourcesLocked() *JobResources {
	res := &JobResources{Provenance: "computed"}
	switch {
	case j.cacheHit:
		res.Provenance = "store-hit"
	case j.shared:
		res.Provenance = "inflight-dedup"
	}
	if !j.startedAt.IsZero() {
		res.WallMS = float64(j.finishedAt.Sub(j.startedAt)) / float64(time.Millisecond)
		res.QueueMS = float64(j.startedAt.Sub(j.queuedAt)) / float64(time.Millisecond)
	} else if !j.queuedAt.IsZero() {
		// Never started (canceled while queued): the whole life was
		// queue time.
		res.QueueMS = float64(j.finishedAt.Sub(j.queuedAt)) / float64(time.Millisecond)
	}
	if j.sampled {
		if cpu := cpuTimeNanos() - j.startCPU; cpu > 0 {
			res.CPUMS = float64(cpu) / float64(time.Millisecond)
		}
		if d := heapAllocBytes() - j.startAllocs; d <= 1<<62 {
			res.AllocBytes = int64(d)
		}
	}
	return res
}

// heapAllocBytes reads the process's cumulative heap allocation. Unlike
// runtime.ReadMemStats, runtime/metrics reads it without stopping the
// world, so sampling it around every job (a store hit included) is
// cheap. The price is granularity: a P's allocations are counted when
// its cache refills a span, so small windows read to within a span.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// computeSlots is the process's pool of slots for CPU-bound job work
// (compiles and simulations), one per scheduler processor. The first
// call also adds one processor beyond the pool. When every processor
// runs a CPU-bound goroutine, a goroutine the network poller wakes
// waits for a preemption tick, 10 to 20 ms per HTTP leg, so a store
// hit served while a novel job computed took up to 80 ms instead of
// 0.3 ms. The spare processor keeps request handling out of that
// wait; the operating system shares the cores while it runs.
var computeSlots = sync.OnceValue(func() runner.Slots {
	n := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(n + 1)
	return runner.NewSlots(n)
})

// Server is the resident experiment service: admission control in
// front of a bounded job queue, a fixed pool of job workers, one
// process-wide experiments.Cache shared by every job's suite, and the
// content-addressed artifact store. Create with New, start workers with
// Start, serve Handler over HTTP, stop with Drain.
type Server struct {
	cfg       atomic.Pointer[Config]
	store     *store.Store
	reg       *obs.Registry
	obsSinks  *obs.Obs
	cache     *experiments.Cache
	slots     runner.Slots // every job's compiles and simulations (computeSlots)
	flight    runner.Flight
	logf      func(format string, args ...any)
	slogger   atomic.Pointer[slog.Logger]
	flightrec *flightRecorder

	// build computes one job's artifact bytes. Tests override it to
	// control job duration; production uses (*Server).buildArtifact.
	build func(j *Job) ([]byte, error)

	cAccepted, cRejected   *obs.Counter
	cDone, cFailed         *obs.Counter
	cCanceled              *obs.Counter
	cStoreHits, cStoreMiss *obs.Counter
	cDedup                 *obs.Counter
	cReloads               *obs.Counter
	gQueued, gRunning      *obs.Gauge
	gInFlight              *obs.Gauge

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string
	queued    int
	running   int
	perClient map[string]int
	draining  bool
	queue     chan *Job
	nextID    int64

	wg        sync.WaitGroup
	startOnce sync.Once
	drainOnce sync.Once
	started   time.Time
}

// RejectError is an admission failure; the HTTP layer maps it to 429
// or 503 with a Retry-After header.
type RejectError struct {
	// Code is the HTTP status the rejection maps to (429 or 503).
	Code int
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
	Reason     string
}

func (e *RejectError) Error() string { return e.Reason }

// New creates a Server from a validated config, opening the store.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	s := &Server{
		store:     st,
		reg:       reg,
		obsSinks:  &obs.Obs{Reg: reg},
		cache:     experiments.NewCache(),
		slots:     computeSlots(),
		logf:      log.Printf,
		jobs:      map[string]*Job{},
		perClient: map[string]int{},
		// Sized to the admission cap so enqueue-under-lock never blocks
		// regardless of reloaded queue depths.
		queue:      make(chan *Job, maxQueueDepth),
		cAccepted:  reg.Counter("service.jobs_accepted"),
		cRejected:  reg.Counter("service.jobs_rejected"),
		cDone:      reg.Counter("service.jobs_completed"),
		cFailed:    reg.Counter("service.jobs_failed"),
		cCanceled:  reg.Counter("service.jobs_canceled"),
		cStoreHits: reg.Counter("service.store_hits"),
		cStoreMiss: reg.Counter("service.store_misses"),
		cDedup:     reg.Counter("service.inflight_dedup"),
		cReloads:   reg.Counter("service.config_reloads"),
		gQueued:    reg.Gauge("service.jobs_queued"),
		gRunning:   reg.Gauge("service.jobs_running"),
		gInFlight:  reg.Gauge("http.in_flight"),
		flightrec:  newFlightRecorder(flightRecCapacity),
		started:    time.Now(),
	}
	s.cfg.Store(&cfg)
	s.slogger.Store(slog.New(printfHandler{logf: log.Printf}))
	s.build = s.buildArtifact
	return s, nil
}

// SetLogger replaces the server's log function (default log.Printf).
// Structured records render through it as "msg k=v" lines; use SetSlog
// for native structured output.
func (s *Server) SetLogger(logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.logf = logf
	s.slogger.Store(slog.New(printfHandler{logf: logf}))
}

// SetSlog replaces the server's structured logger (cmd/lpbufd installs
// a leveled text or JSON handler here).
func (s *Server) SetSlog(l *slog.Logger) {
	if l == nil {
		return
	}
	s.slogger.Store(l)
	s.logf = func(format string, args ...any) {
		l.Info(fmt.Sprintf(format, args...))
	}
}

// slog returns the current structured logger.
func (s *Server) slog() *slog.Logger { return s.slogger.Load() }

// Config returns the current (possibly hot-reloaded) configuration.
func (s *Server) Config() Config { return *s.cfg.Load() }

// Registry exposes the service metrics registry (served at /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Store exposes the artifact store.
func (s *Server) Store() *store.Store { return s.store }

// Start launches the job workers. The worker count (MaxJobs) is bound
// here; admission fields stay hot-reloadable.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		n := s.Config().MaxJobs
		s.wg.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer s.wg.Done()
				for j := range s.queue {
					s.runJob(j)
				}
			}()
		}
	})
}

// Reload applies a new configuration. Admission fields (QueueDepth,
// MaxPerClient, Workers, Verify) take effect immediately and are
// reported as "field: old -> new" entries in changed; changes to
// startup-bound fields (Listen, StoreDir, MaxJobs) are ignored and
// reported by name so the operator knows a restart is needed.
func (s *Server) Reload(next Config) (changed, ignored []string, err error) {
	if err := next.Validate(); err != nil {
		return nil, nil, err
	}
	cur := s.Config()
	if next.Listen != cur.Listen {
		ignored = append(ignored, "listen")
		next.Listen = cur.Listen
	}
	if next.StoreDir != cur.StoreDir {
		ignored = append(ignored, "store_dir")
		next.StoreDir = cur.StoreDir
	}
	if next.MaxJobs != cur.MaxJobs {
		ignored = append(ignored, "max_jobs")
		next.MaxJobs = cur.MaxJobs
	}
	if next.Workers != cur.Workers {
		changed = append(changed, fmt.Sprintf("workers: %d -> %d", cur.Workers, next.Workers))
	}
	if next.QueueDepth != cur.QueueDepth {
		changed = append(changed, fmt.Sprintf("queue_depth: %d -> %d", cur.QueueDepth, next.QueueDepth))
	}
	if next.MaxPerClient != cur.MaxPerClient {
		changed = append(changed, fmt.Sprintf("max_per_client: %d -> %d", cur.MaxPerClient, next.MaxPerClient))
	}
	if next.Verify != cur.Verify {
		changed = append(changed, fmt.Sprintf("verify: %t -> %t", cur.Verify, next.Verify))
	}
	s.cfg.Store(&next)
	s.cReloads.Inc()
	return changed, ignored, nil
}

// ReloadFile is Reload from a config file (the SIGHUP path).
func (s *Server) ReloadFile(path string) (changed, ignored []string, err error) {
	cfg, err := LoadConfig(path)
	if err != nil {
		return nil, nil, err
	}
	return s.Reload(cfg)
}

// Submit admits a job with a server-generated trace context; see
// SubmitTraced.
func (s *Server) Submit(spec JobSpec, remoteHost string) (*Job, error) {
	return s.SubmitTraced(spec, remoteHost, "")
}

// SubmitTraced admits a job under a trace context. The spec is
// normalized and content-addressed; admission rejects when draining
// (503), when the queue is full or the client exceeds its active-job
// cap (429 + Retry-After). Accepted jobs are queued and run
// asynchronously; identical accepted jobs share work through the
// store, the singleflight group and the compile cache, not through
// admission. Every accepted job opens its own observability Scope: a
// private span tree rooted at a "job" span carrying traceID (empty or
// invalid IDs get a generated one), folded into the service registry
// at the terminal state. Rejections and lifecycle transitions are
// recorded in the flight recorder.
func (s *Server) SubmitTraced(spec JobSpec, remoteHost, traceID string) (*Job, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	key, err := norm.Key()
	if err != nil {
		return nil, err
	}
	client := norm.Client
	if client == "" {
		client = remoteHost
	}
	if client == "" {
		client = "anonymous"
	}
	if !validTraceID(traceID) {
		traceID = genTraceID()
	}
	cfg := s.Config()

	reject := func(rej *RejectError) (*Job, error) {
		s.cRejected.Inc()
		s.flightrec.record(FlightRecord{
			Kind:    "rejected",
			Client:  client,
			TraceID: traceID,
			Code:    rej.Code,
			Reason:  rej.Reason,
		})
		return nil, rej
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return reject(&RejectError{Code: 503, RetryAfter: 10 * time.Second,
			Reason: "server is draining"})
	}
	if s.queued >= cfg.QueueDepth {
		return reject(&RejectError{Code: 429, RetryAfter: 2 * time.Second,
			Reason: fmt.Sprintf("job queue full (%d queued, depth %d)", s.queued, cfg.QueueDepth)})
	}
	if s.perClient[client] >= cfg.MaxPerClient {
		return reject(&RejectError{Code: 429, RetryAfter: 5 * time.Second,
			Reason: fmt.Sprintf("client %q at its active-job cap (%d)", client, cfg.MaxPerClient)})
	}

	s.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:       fmt.Sprintf("job-%06d", s.nextID),
		client:   client,
		spec:     norm,
		key:      key,
		traceID:  traceID,
		hub:      newEventHub(),
		ctx:      ctx,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    StateQueued,
		queuedAt: time.Now(),
	}
	j.scope = s.obsSinks.OpenScope(obs.ScopeConfig{
		Spans:         true,
		MaxSpanEvents: jobTraceEvents,
		SimEvents:     true,
		SimRingSize:   jobSimRing,
	})
	j.rootSpan = j.scope.Obs().StartSpan("job")
	j.rootSpan.SetAttr("job", j.id)
	j.rootSpan.SetAttr("trace_id", traceID)
	j.rootSpan.SetAttr("client", client)
	j.rootSpan.SetAttr("key", key)
	for _, fig := range norm.Figures {
		j.rootSpan.SetAttr("fig_"+fig, "requested")
	}
	j.queueSpan = j.rootSpan.Child("queue_wait")
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queued++
	s.perClient[client]++
	s.gQueued.SetInt(int64(s.queued))
	s.cAccepted.Inc()
	s.flightrec.record(FlightRecord{
		Kind:    "transition",
		JobID:   j.id,
		Client:  client,
		To:      StateQueued,
		TraceID: traceID,
	})
	// Send under the lock: the channel's capacity is maxQueueDepth and
	// admission bounds queued below it, so this never blocks; holding
	// the lock orders the send before any concurrent Drain closes the
	// channel.
	s.queue <- j
	j.hub.publish(Event{Type: "state", JobID: j.id, State: StateQueued})
	return j, nil
}

// validTraceID accepts client trace IDs: 1-64 characters drawn from
// [A-Za-z0-9._-] (attribute- and log-safe without escaping).
func validTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// genTraceID creates a random 16-hex-digit trace ID.
func genTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a fixed
		// fallback beats an unsubmittable job.
		return "trace-rand-failed"
	}
	return hex.EncodeToString(b[:])
}

// Get returns a job by id.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels a job: a queued job finalizes immediately, a running
// job has its context canceled and finalizes when its work unwinds.
// Canceling a terminal job is a no-op returning false.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	switch state {
	case StateQueued:
		// Guarded on still-queued: if a worker started the job between
		// the check and here, fall through to a context cancel instead.
		if s.finalizeFrom(j, StateQueued, StateCanceled, errors.New("canceled by client"), false, false) {
			return true
		}
		j.cancel()
		return true
	case StateRunning:
		j.cancel()
		return true
	}
	return false
}

// Drain stops the service gracefully: new submissions are rejected,
// queued-but-unstarted jobs are canceled, in-flight jobs run to
// completion. It returns once every worker has exited or ctx expires.
// The artifact store stays consistent throughout (writes are atomic and
// canceled jobs never wrote).
func (s *Server) Drain(ctx context.Context) error {
	var queued []*Job
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		for _, id := range s.order {
			j := s.jobs[id]
			j.mu.Lock()
			if j.state == StateQueued {
				queued = append(queued, j)
			}
			j.mu.Unlock()
		}
		close(s.queue)
		s.mu.Unlock()
		for _, j := range queued {
			j.cancel()
			// Guarded: a worker may have started the job between the
			// scan and here; started jobs run to completion.
			s.finalizeFrom(j, StateQueued, StateCanceled,
				errors.New("server drained before start"), false, false)
		}
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w", ctx.Err())
	}
}

// Draining reports whether the server has begun draining.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// finalize moves a job to a terminal state exactly once, updating
// bookkeeping, counters and the event stream.
func (s *Server) finalize(j *Job, state State, err error, cacheHit, shared bool) {
	s.finalizeFrom(j, "", state, err, cacheHit, shared)
}

// finalizeFrom is finalize guarded on the job's current state: when
// require is non-empty and the job is no longer in it, nothing happens
// and false is returned (the cancel paths use this so a job that a
// worker started concurrently runs to completion instead of being
// half-canceled).
func (s *Server) finalizeFrom(j *Job, require, state State, err error, cacheHit, shared bool) bool {
	j.mu.Lock()
	if j.state.Terminal() || (require != "" && j.state != require) {
		j.mu.Unlock()
		return false
	}
	wasQueued := j.state == StateQueued
	from := j.state
	j.state = state
	j.cacheHit = cacheHit
	j.shared = shared
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finishedAt = time.Now()
	j.res = j.resourcesLocked()
	j.mu.Unlock()

	// Seal the job's trace: the root span closes with the outcome and
	// the scope's child registry folds into the service registry, so
	// process-wide totals include this job from here on while its span
	// tree stays servable at /v1/jobs/{id}/trace.
	if wasQueued {
		j.queueSpan.End()
	}
	j.rootSpan.SetAttr("state", string(state))
	if cacheHit {
		j.rootSpan.SetAttr("cache", "store-hit")
	} else if shared {
		j.rootSpan.SetAttr("cache", "inflight-dedup")
	}
	if err != nil {
		j.rootSpan.SetAttr("err", err.Error())
	}
	j.rootSpan.End()
	j.scope.Close()

	rec := FlightRecord{
		Kind:    "transition",
		JobID:   j.id,
		Client:  j.client,
		From:    from,
		To:      state,
		TraceID: j.traceID,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.flightrec.record(rec)

	s.mu.Lock()
	if wasQueued {
		s.queued--
		s.gQueued.SetInt(int64(s.queued))
	} else {
		s.running--
		s.gRunning.SetInt(int64(s.running))
	}
	s.perClient[j.client]--
	if s.perClient[j.client] <= 0 {
		delete(s.perClient, j.client)
	}
	s.mu.Unlock()

	switch state {
	case StateDone:
		s.cDone.Inc()
	case StateFailed:
		s.cFailed.Inc()
	case StateCanceled:
		s.cCanceled.Inc()
	}
	e := Event{Type: "state", JobID: j.id, State: state}
	if err != nil {
		e.Err = err.Error()
	}
	j.hub.publish(e)
	j.hub.close()
	close(j.done)
	return true
}

// runJob executes one queued job on a worker: store lookup first, then
// a singleflight-deduplicated build, then an atomic store write.
func (s *Server) runJob(j *Job) {
	// Sample the job's resource baseline before taking any lock.
	startCPU := cpuTimeNanos()
	startAllocs := heapAllocBytes()

	// The state change and the queued -> running move are one critical
	// section, so anyone who sees the job running also sees it counted
	// as running. s.mu before j.mu, the order Drain uses.
	s.mu.Lock()
	j.mu.Lock()
	if j.state != StateQueued {
		// Canceled while queued (drain or explicit cancel).
		j.mu.Unlock()
		s.mu.Unlock()
		return
	}
	if j.ctx.Err() != nil {
		j.mu.Unlock()
		s.mu.Unlock()
		s.finalize(j, StateCanceled, j.ctx.Err(), false, false)
		return
	}
	j.state = StateRunning
	j.startedAt = time.Now()
	j.sampled = true
	j.startCPU = startCPU
	j.startAllocs = startAllocs
	j.mu.Unlock()
	s.queued--
	s.running++
	s.gQueued.SetInt(int64(s.queued))
	s.gRunning.SetInt(int64(s.running))
	s.mu.Unlock()
	j.queueSpan.End()
	j.queueSpan = nil
	s.flightrec.record(FlightRecord{
		Kind:    "transition",
		JobID:   j.id,
		Client:  j.client,
		From:    StateQueued,
		To:      StateRunning,
		TraceID: j.traceID,
	})
	j.hub.publish(Event{Type: "state", JobID: j.id, State: StateRunning})

	// Content-addressed fast path: an identical job already produced
	// these bytes (this process or any earlier one sharing the store).
	lookup := j.rootSpan.Child("store_lookup")
	if data, err := s.store.Get(j.key); err == nil && len(data) > 0 {
		lookup.SetAttr("result", "hit")
		lookup.End()
		s.cStoreHits.Inc()
		s.finalize(j, StateDone, nil, true, false)
		return
	}
	lookup.SetAttr("result", "miss")
	lookup.End()
	s.cStoreMiss.Inc()

	// Singleflight on the content key: identical in-flight jobs share
	// one build. The shared result is already in the store when the
	// leader returns.
	buildSpan := j.rootSpan.Child("build")
	_, shared, err := s.flight.Do(j.key, func() (any, error) {
		data, err := s.build(j)
		if err != nil {
			return nil, err
		}
		write := j.rootSpan.Child("store_write")
		write.SetInt("bytes", len(data))
		putErr := s.store.Put(j.key, data)
		write.End()
		if putErr != nil {
			return nil, putErr
		}
		return data, nil
	})
	if shared {
		buildSpan.SetAttr("shared", "inflight-dedup")
	}
	buildSpan.End()
	if shared {
		s.cDedup.Inc()
	}
	switch {
	case err == nil:
		s.finalize(j, StateDone, nil, false, shared)
	case j.ctx.Err() != nil || errors.Is(err, context.Canceled):
		s.finalize(j, StateCanceled, err, false, shared)
	default:
		s.slog().Error("job failed", "job", j.id, "trace", j.traceID, "err", err)
		s.finalize(j, StateFailed, err, false, shared)
	}
}

// buildArtifact computes the job's figures through a per-job Suite
// wired into the shared compile/run cache and the service registry, and
// encodes the deterministic artifact sections. Runner timings and
// registry snapshots are deliberately excluded: the artifact must be a
// pure function of (spec, machine) so the content-addressed store can
// serve byte-identical results forever.
func (s *Server) buildArtifact(j *Job) ([]byte, error) {
	cfg := s.Config()
	// Instrumentation sinks are the job's own scope: compile-phase
	// spans and simulator events land in the per-job trace, and metric
	// updates land in the scope's child registry, folded into the
	// service registry when the job finalizes.
	jobObs := j.scope.Obs()
	if jobObs == nil {
		jobObs = s.obsSinks
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = cap(s.slots)
	}
	suite := experiments.NewWithOptions(experiments.Options{
		Workers: workers,
		Slots:   s.slots,
		Verify:  j.spec.Verify || cfg.Verify,
		Cache:   s.cache,
		Obs:     jobObs,
		// Every job samples the guest PMU at the default period; the
		// profile is served at /v1/jobs/{id}/simprofile and never enters
		// the store artifact. All suites share s.cache, so enabling it
		// uniformly keeps cached runs' profiles consistent.
		PMU: &pmu.Config{},
		OnEvent: func(e runner.Event) {
			j.hub.publish(Event{
				Type:      "progress",
				JobID:     j.id,
				Key:       e.Key,
				Kind:      string(e.Kind),
				Phase:     string(e.Type),
				ElapsedMS: float64(e.Elapsed) / float64(time.Millisecond),
				Err:       e.Err,
			})
		},
	})
	art, err := suite.BuildArtifact(j.ctx, j.spec.Figures, j.spec.Fig5Sizes, j.spec.Fig7Sizes)
	if err != nil {
		return nil, err
	}
	if doc := suite.SimProfiles(); doc != nil {
		j.mu.Lock()
		j.simprofile = doc
		j.mu.Unlock()
	}
	return art.Encode()
}
