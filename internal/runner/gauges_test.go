package runner

import (
	"context"
	"errors"
	"testing"

	"lpbuf/internal/obs"
)

// TestQueueAndInFlightGauges tracks the runner.queue_depth and
// runner.jobs_in_flight gauges through an execution: items admitted to
// Execute count as queued until a worker picks them up, running jobs
// count as in flight, and both gauges settle to zero at the end.
func TestQueueAndInFlightGauges(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsIn(reg)
	r := New(WithWorkers(1), WithMetrics(m))

	gate := make(chan struct{})
	seen := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- r.Execute(context.Background(), 2, func(ctx context.Context, i int) error {
			if i == 1 {
				return r.Job(ctx, KindSimulate, "after", func() error { return nil })
			}
			return r.Job(ctx, KindCompile, "slow", func() error {
				close(seen)
				<-gate
				return nil
			})
		})
	}()
	<-seen
	// One job is executing, the second item is admitted but unstarted.
	snap := m.Snapshot()
	if snap.InFlight != 1 || snap.QueueDepth != 1 {
		t.Errorf("Snapshot in_flight=%d queue_depth=%d mid-run, want 1/1",
			snap.InFlight, snap.QueueDepth)
	}
	gauges := reg.Snapshot().Gauges
	if got := gauges["runner.jobs_in_flight"]; got != 1 {
		t.Errorf("runner.jobs_in_flight gauge = %v, want 1", got)
	}
	if got := gauges["runner.queue_depth"]; got != 1 {
		t.Errorf("runner.queue_depth gauge = %v, want 1", got)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if snap := m.Snapshot(); snap.InFlight != 0 || snap.QueueDepth != 0 {
		t.Fatalf("gauges did not settle: in_flight=%d queue_depth=%d",
			snap.InFlight, snap.QueueDepth)
	}
	gauges = reg.Snapshot().Gauges
	if gauges["runner.jobs_in_flight"] != 0 || gauges["runner.queue_depth"] != 0 {
		t.Fatalf("registry gauges did not settle: %v", gauges)
	}
}

// TestQueueGaugeDrainsOnFailure proves never-started items are
// unqueued when an execution aborts, so admission layers don't see
// phantom depth.
func TestQueueGaugeDrainsOnFailure(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsIn(reg)
	r := New(WithWorkers(1), WithMetrics(m))
	err := r.Execute(context.Background(), 3, func(ctx context.Context, i int) error {
		if i == 0 {
			return r.Job(ctx, KindCompile, "boom", func() error { return errors.New("kaboom") })
		}
		return r.Job(ctx, KindSimulate, "never", func() error { return nil })
	})
	if err == nil {
		t.Fatal("failing execution succeeded")
	}
	snap := m.Snapshot()
	if got := snap.QueueDepth; got != 0 {
		t.Fatalf("QueueDepth = %d after failed execution, want 0", got)
	}
	if got := snap.InFlight; got != 0 {
		t.Fatalf("InFlight = %d after failed execution, want 0", got)
	}
}

// TestGaugeAdd exercises the obs.Gauge delta path multiple runner
// Metrics instances rely on when they share one registry.
func TestGaugeAdd(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewMetricsIn(reg)
	b := NewMetricsIn(reg)
	a.enqueue(3)
	b.enqueue(2)
	if got := reg.Snapshot().Gauges["runner.queue_depth"]; got != 5 {
		t.Fatalf("shared queue_depth gauge = %v, want 5", got)
	}
	a.unqueue(3)
	b.unqueue(2)
	if got := reg.Snapshot().Gauges["runner.queue_depth"]; got != 0 {
		t.Fatalf("shared queue_depth gauge = %v after unqueue, want 0", got)
	}
}
