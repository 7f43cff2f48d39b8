package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// noop is a job body that succeeds.
func noop() error { return nil }

func TestExecuteEmptyGraph(t *testing.T) {
	m := NewMetrics()
	r := New(WithMetrics(m))
	called := false
	if err := r.Execute(context.Background(), 0, func(context.Context, int) error {
		called = true
		return nil
	}); err != nil || called {
		t.Fatalf("empty execution: called=%v err=%v", called, err)
	}
	if snap := m.Snapshot(); snap.JobsRun != 0 {
		t.Fatalf("empty execution ran jobs: %+v", snap)
	}
}

// TestExecuteItemsThenReduce checks the figure shape: each item runs
// its compile then its simulate job, and a reduce job afterwards sees
// every item's result.
func TestExecuteItemsThenReduce(t *testing.T) {
	m := NewMetrics()
	r := New(WithWorkers(4), WithMetrics(m))
	ctx := context.Background()
	const n = 5
	got := make([]int, n)
	err := r.Execute(ctx, n, func(ctx context.Context, i int) error {
		var c int
		if err := r.Job(ctx, KindCompile, fmt.Sprintf("compile/%d", i), func() error {
			c = 10 * i
			return nil
		}); err != nil {
			return err
		}
		return r.Job(ctx, KindSimulate, fmt.Sprintf("simulate/%d", i), func() error {
			got[i] = c + 1
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	if err := r.Job(ctx, KindReduce, "reduce", func() error {
		for _, v := range got {
			sum += v
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 10*(0+1+2+3+4)+n {
		t.Fatalf("sum = %d", sum)
	}
	snap := m.Snapshot()
	if snap.JobsRun != 2*n+1 || snap.JobsFailed != 0 || snap.Retries != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap.Kinds["simulate"].Jobs != n || snap.Kinds["reduce"].Jobs != 1 {
		t.Fatalf("kind counts: %+v", snap.Kinds)
	}
	if len(snap.Jobs) != 2*n+1 || snap.Jobs[0].Key != "compile/0" {
		t.Fatalf("job records: %+v", snap.Jobs)
	}
}

// TestConcurrencyBound checks the worker pool never exceeds its bound,
// including across concurrent Execute calls sharing one Runner.
func TestConcurrencyBound(t *testing.T) {
	const bound = 3
	m := NewMetrics()
	r := New(WithWorkers(bound), WithMetrics(m))
	var inFlight, peak atomic.Int64
	job := func() error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for e := 0; e < 3; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := r.Execute(context.Background(), 10, func(ctx context.Context, i int) error {
				return r.Job(ctx, KindSimulate, fmt.Sprintf("j%d", i), job)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("peak in-flight %d exceeds bound %d", p, bound)
	}
	if snap := m.Snapshot(); snap.PeakInFlight > bound || snap.JobsRun != 30 {
		t.Fatalf("metrics: %+v", snap)
	}
}

// TestSharedSlotsBoundAcrossRunners checks that runners sharing a
// slot pool stay within its size together, each with a worker bound of
// its own above it.
func TestSharedSlotsBoundAcrossRunners(t *testing.T) {
	const slots = 2
	pool := NewSlots(slots)
	var inFlight, peak atomic.Int64
	job := func() error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return nil
	}
	var wg sync.WaitGroup
	for e := 0; e < 3; e++ {
		r := New(WithWorkers(4), WithSlots(pool))
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := r.Execute(context.Background(), 10, func(ctx context.Context, i int) error {
				return r.Job(ctx, KindSimulate, fmt.Sprintf("j%d", i), job)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p != slots {
		t.Fatalf("peak in-flight across runners %d, want the pool size %d", p, slots)
	}
}

// TestFlightDedup checks that concurrent same-key calls share one
// execution and all observe its result.
func TestFlightDedup(t *testing.T) {
	var f Flight
	var execs atomic.Int64
	release := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := f.Do("key", func() (any, error) {
				execs.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v.(int) != 42 {
				t.Errorf("Do: %v %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let the goroutines pile up on the key, then release the leader.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times", n)
	}
	if sharedCount.Load() != callers-1 {
		t.Fatalf("%d callers shared", sharedCount.Load())
	}
	// The key is forgotten afterwards: a fresh Do re-executes.
	if _, shared, _ := f.Do("key", func() (any, error) { execs.Add(1); return 0, nil }); shared {
		t.Fatal("fresh call reported shared")
	}
	if execs.Load() != 2 {
		t.Fatal("fresh call did not execute")
	}
}

// TestCancellationOnFailure checks that the first failure cancels the
// execution: later items never start and the failure is reported with
// its job kind and key.
func TestCancellationOnFailure(t *testing.T) {
	m := NewMetrics()
	r := New(WithWorkers(1), WithMetrics(m))
	var started atomic.Int64
	err := r.Execute(context.Background(), 6, func(ctx context.Context, i int) error {
		if i == 0 {
			return r.Job(ctx, KindCompile, "boom", func() error { return errors.New("bad compile") })
		}
		return r.Job(ctx, KindSimulate, fmt.Sprintf("later%d", i), func() error {
			started.Add(1)
			return nil
		})
	})
	if err == nil || !strings.Contains(err.Error(), "compile boom: bad compile") {
		t.Fatalf("error: %v", err)
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d queued jobs ran after the failure", n)
	}
	if snap := m.Snapshot(); snap.JobsRun != 1 || snap.JobsFailed != 1 {
		t.Fatalf("metrics: %+v", snap)
	}
}

// TestCancellationReachesRunningJobs checks that an in-flight job
// observes ctx cancellation when a sibling fails.
func TestCancellationReachesRunningJobs(t *testing.T) {
	r := New(WithWorkers(2))
	observed := make(chan struct{})
	err := r.Execute(context.Background(), 2, func(ctx context.Context, i int) error {
		if i == 0 {
			return r.Job(ctx, KindSimulate, "slow", func() error {
				select {
				case <-ctx.Done():
					close(observed)
					return ctx.Err()
				case <-time.After(5 * time.Second):
					return errors.New("never cancelled")
				}
			})
		}
		return r.Job(ctx, KindSimulate, "boom", func() error {
			time.Sleep(5 * time.Millisecond) // let "slow" start first
			return errors.New("hard failure")
		})
	})
	if err == nil || !strings.Contains(err.Error(), "hard failure") {
		t.Fatalf("error: %v", err)
	}
	select {
	case <-observed:
	default:
		t.Fatal("running job did not observe cancellation")
	}
}

func TestParentContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := New(WithWorkers(1))
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := r.Execute(ctx, 1, func(ctx context.Context, _ int) error {
		return r.Job(ctx, KindSimulate, "waits", func() error {
			<-ctx.Done()
			return ctx.Err()
		})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error: %v", err)
	}
	// A job asked for after cancellation never starts.
	ran := false
	if err := r.Job(ctx, KindReduce, "late", func() error { ran = true; return nil }); !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("late job: ran=%v err=%v", ran, err)
	}
}

func TestLogObserver(t *testing.T) {
	var sb strings.Builder
	var mu sync.Mutex
	obs := LogObserver(&syncWriter{w: &sb, mu: &mu})
	r := New(WithWorkers(2), WithObserver(obs))
	ctx := context.Background()
	if err := r.Job(ctx, KindCompile, "c", noop); err != nil {
		t.Fatal(err)
	}
	if err := r.Job(ctx, KindSimulate, "s", noop); err != nil {
		t.Fatal(err)
	}
	if err := r.Job(ctx, KindReduce, "r", func() error { return errors.New("bad") }); err == nil {
		t.Fatal("failing job succeeded")
	}
	out := sb.String()
	for _, want := range []string{"start", "done", "compile", "simulate", "FAIL", "reduce", "bad"} {
		if !strings.Contains(out, want) {
			t.Fatalf("log lacks %q:\n%s", want, out)
		}
	}
}

type syncWriter struct {
	w  *strings.Builder
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestStressManyGraphs hammers one Runner with many concurrent
// executions sharing a Flight-backed memo, asserting exactly one
// computation per distinct key (run under -race in CI).
func TestStressManyGraphs(t *testing.T) {
	r := New(WithWorkers(4))
	var flight Flight
	var mu sync.Mutex
	memo := map[string]int{}
	var execs atomic.Int64
	get := func(key string) (int, error) {
		mu.Lock()
		v, okc := memo[key]
		mu.Unlock()
		if okc {
			return v, nil
		}
		res, _, err := flight.Do(key, func() (any, error) {
			mu.Lock()
			v, okc := memo[key]
			mu.Unlock()
			if okc {
				return v, nil
			}
			execs.Add(1)
			v = len(key)
			mu.Lock()
			memo[key] = v
			mu.Unlock()
			return v, nil
		})
		if err != nil {
			return 0, err
		}
		return res.(int), nil
	}
	const executions, keys = 8, 5
	var wg sync.WaitGroup
	for e := 0; e < executions; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := r.Execute(context.Background(), keys, func(ctx context.Context, k int) error {
				return r.Job(ctx, KindCompile, fmt.Sprintf("job-%d", k), func() error {
					_, err := get(fmt.Sprintf("shared-%d", k))
					return err
				})
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := execs.Load(); n != keys {
		t.Fatalf("%d executions for %d distinct keys", n, keys)
	}
}
