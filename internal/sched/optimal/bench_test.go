package optimal_test

import (
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
	"lpbuf/internal/sched/optimal"
)

// loopCall is one kernel as the scheduler receives it.
type loopCall struct {
	d     *sched.DAG
	m     *machine.Desc
	maxII int
}

// recorder is the heuristic backend, keeping every loop it schedules.
type recorder struct{ calls []loopCall }

func (r *recorder) ScheduleLoop(d *sched.DAG, m *machine.Desc, maxII int) *sched.KernelSchedule {
	r.calls = append(r.calls, loopCall{d, m, maxII})
	return sched.ModuloSchedule(d, m, maxII)
}

// fallbackKernels compiles each named benchmark's aggressive pipeline,
// collects the kernels its scheduling pass sees, and returns the one
// per benchmark on which the exact search exhausts its node budget.
func fallbackKernels(b *testing.B, names ...string) []loopCall {
	var out []loopCall
	for _, name := range names {
		bm, ok := suite.ByName(name)
		if !ok {
			b.Fatalf("%s missing from the benchmark table", name)
		}
		c, err := core.Compile(bm.Build(), core.Aggressive(256))
		if err != nil {
			b.Fatal(err)
		}
		rec := &recorder{}
		opts := sched.Options{EnableModulo: c.Config.Modulo, Backend: rec}
		if _, err := sched.Schedule(c.TransformedIR.Clone(), c.Config.Machine, opts); err != nil {
			b.Fatal(err)
		}
		found := 0
		for _, k := range rec.calls {
			s := optimal.New(optimal.Options{})
			s.ScheduleLoop(k.d, k.m, k.maxII)
			if s.Stats().Fallbacks == 1 {
				out = append(out, k)
				found++
			}
		}
		if found != 1 {
			b.Fatalf("%s: %d kernels exhaust the node budget, want 1", name, found)
		}
	}
	return out
}

// BenchmarkExactSearch times the exact scheduler on the suite's two
// budget-fallback kernels, g724enc's main loop and g724dec's
// postfilter loop: they spend nearly all of the shoot-out's search
// nodes, so ns/node is the exact-search layer's per-node cost. The
// compiles that produce the kernels run outside the timer.
func BenchmarkExactSearch(b *testing.B) {
	kernels := fallbackKernels(b, "g724enc", "g724dec")
	b.ResetTimer()
	var nodes int64
	for i := 0; i < b.N; i++ {
		for _, k := range kernels {
			s := optimal.New(optimal.Options{})
			if ks := s.ScheduleLoop(k.d, k.m, k.maxII); ks == nil || ks.Proven {
				b.Fatal("fallback kernel no longer falls back to the heuristic schedule")
			}
			nodes += s.Stats().Nodes
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
