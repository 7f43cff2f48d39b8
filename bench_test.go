// Package lpbuf's top-level benches regenerate the paper's tables and
// figures (run with `go test -bench=. -benchmem`). Each bench reports
// the relevant headline metric via b.ReportMetric and prints the full
// table once, so a single -bench run reproduces the evaluation.
//
// All benches execute through the internal/runner job scheduler behind
// experiments.Suite: compiles and simulations are singleflighted and
// cached across the shared suite, and BenchmarkSuiteConcurrent
// additionally stresses the concurrent path end to end.
package lpbuf

import (
	"fmt"
	"sync"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/experiments"
	"lpbuf/internal/obs/pmu"
	"lpbuf/internal/vliw"
)

// shared suite so compiled benchmarks are reused across benches.
var (
	suiteOnce sync.Once
	suiteInst *experiments.Suite
)

func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() { suiteInst = experiments.New() })
	return suiteInst
}

// BenchmarkFigure7Traditional regenerates the Figure 7(a) curves.
func BenchmarkFigure7Traditional(b *testing.B) {
	s := sharedSuite()
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure7("traditional", experiments.BufferSizes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig7("Figure 7(a): traditional", rows, experiments.BufferSizes))
	b.ReportMetric(avgAt(rows, 256), "%buffer@256")
	b.ReportMetric(avgAt(rows, 16), "%buffer@16")
}

// BenchmarkFigure7Aggressive regenerates the Figure 7(b) curves.
func BenchmarkFigure7Aggressive(b *testing.B) {
	s := sharedSuite()
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure7("aggressive", experiments.BufferSizes)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig7("Figure 7(b): aggressive", rows, experiments.BufferSizes))
	b.ReportMetric(avgAt(rows, 256), "%buffer@256")
	b.ReportMetric(avgAt(rows, 16), "%buffer@16")
}

func avgAt(rows []experiments.Fig7Row, sz int) float64 {
	var sum float64
	for _, r := range rows {
		sum += r.Ratios[sz]
	}
	return 100 * sum / float64(len(rows))
}

// BenchmarkFigure8a regenerates the speedup / code size / fetch table.
func BenchmarkFigure8a(b *testing.B) {
	s := sharedSuite()
	var rows []experiments.Fig8aRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure8a()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig8a(rows))
	var sp float64
	for _, r := range rows {
		sp += r.Speedup
	}
	b.ReportMetric(sp/float64(len(rows)), "avg-speedup")
}

// BenchmarkFigure8b regenerates the normalized fetch-power table.
func BenchmarkFigure8b(b *testing.B) {
	s := sharedSuite()
	var rows []experiments.Fig8bRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure8b()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig8b(rows))
	var p float64
	for _, r := range rows {
		p += r.TransformedBuffered
	}
	b.ReportMetric(100*p/float64(len(rows)), "%power-transformed")
}

// BenchmarkFigure3 regenerates the predication characterization.
func BenchmarkFigure3(b *testing.B) {
	s := sharedSuite()
	var f3 *experiments.Fig3
	for i := 0; i < b.N; i++ {
		var err error
		f3, err = s.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderFig3(f3))
	b.ReportMetric(float64(f3.MaxLiveMax), "max-live-preds")
}

// BenchmarkFigure5 regenerates the PostFilter buffer traces.
func BenchmarkFigure5(b *testing.B) {
	s := sharedSuite()
	for i := 0; i < b.N; i++ {
		for _, sz := range []int{16, 32, 64} {
			f5, err := s.Figure5(sz)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Println(experiments.RenderFig5(f5))
			}
		}
	}
}

// BenchmarkHeadline regenerates the abstract's aggregates.
func BenchmarkHeadline(b *testing.B) {
	s := sharedSuite()
	var h *experiments.Headline
	for i := 0; i < b.N; i++ {
		var err error
		h, err = s.ComputeHeadline()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	fmt.Println(experiments.RenderHeadline(h))
	b.ReportMetric(h.AvgSpeedup, "avg-speedup")
	b.ReportMetric(100*h.BufferIssueAggressive, "%buffer-transformed")
}

// BenchmarkSuiteConcurrent regenerates Figures 7/8a/8b and the
// headline concurrently on a fresh suite, reporting the runner's
// compile count (must stay at 22 — one per (bench, config) pair) and
// peak in-flight jobs. This is the benchmark-shaped version of the
// subsystem's -race stress test.
func BenchmarkSuiteConcurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewWithOptions(experiments.Options{Workers: 8})
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		launch := func(fn func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := fn(); err != nil {
					errs <- err
				}
			}()
		}
		launch(func() error { _, err := s.Figure7("traditional", experiments.BufferSizes); return err })
		launch(func() error { _, err := s.Figure7("aggressive", experiments.BufferSizes); return err })
		launch(func() error { _, err := s.Figure8a(); return err })
		launch(func() error { _, err := s.Figure8b(); return err })
		launch(func() error { _, err := s.ComputeHeadline(); return err })
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
		snap := s.Metrics()
		b.ReportMetric(float64(snap.CacheMisses), "compiles")
		b.ReportMetric(float64(snap.PeakInFlight), "peak-in-flight")
		b.ReportMetric(float64(snap.RunMisses), "simulations")
	}
}

// compileG724enc compiles the heaviest benchmark's aggressive pipeline
// directly through core, bypassing the suite's caches.
func compileG724enc(b *testing.B, p *pmu.Config) *core.Compiled {
	bm, ok := suite.ByName("g724enc")
	if !ok {
		b.Fatal("g724enc missing from the benchmark table")
	}
	cfg := core.Aggressive(256)
	cfg.Name = "aggressive"
	cfg.TraceLabel = "g724enc"
	cfg.PMU = p
	c, err := core.Compile(bm.Build(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkSimulatorThroughput measures raw simulator speed on the
// heaviest benchmark: each iteration is one 256-op simulation of a
// program compiled outside the timer, checked against the reference
// output. One untimed run warms the engine's pooled scratch first.
func BenchmarkSimulatorThroughput(b *testing.B) {
	c := compileG724enc(b, nil)
	engine := vliw.NewEngine()
	if _, err := c.RunSweep([]int{256}, engine); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var stats vliw.Stats
	for i := 0; i < b.N; i++ {
		results, err := c.RunSweep([]int{256}, engine)
		if err != nil {
			b.Fatal(err)
		}
		stats = results[0].Stats
	}
	b.ReportMetric(float64(stats.OpsIssued), "sim-ops/run")
	b.ReportMetric(float64(stats.Cycles), "sim-cycles/run")
}

// BenchmarkSimsPerSec measures sustained batched-sweep throughput in
// verified simulations per second: each iteration runs the heaviest
// benchmark's full Figure 7 buffer sweep through the batch engine
// (core.RunSweep → vliw.RunBatch), the workload lpbufd jobs and figure
// regenerations are made of. It compiles directly through core —
// bypassing the suite's run cache — so every iteration simulates for
// real, and the sims/sec metric feeds the perf gate's throughput
// baseline (cmd/benchdiff -check-throughput).
func BenchmarkSimsPerSec(b *testing.B) {
	c := compileG724enc(b, nil)
	engine := vliw.NewEngine()
	b.ResetTimer()
	sims := 0
	for i := 0; i < b.N; i++ {
		results, err := c.RunSweep(experiments.BufferSizes, engine)
		if err != nil {
			b.Fatal(err)
		}
		sims += len(results)
	}
	b.ReportMetric(float64(sims)/b.Elapsed().Seconds(), "sims/sec")
}

// BenchmarkSimsPerSecPMU is BenchmarkSimsPerSec with guest-PMU
// sampling at the default period. The pair feeds the PMU overhead gate
// (cmd/benchdiff -check-pmu-overhead): sampling may cost at most its
// budgeted fraction of the sampling-off sims/sec.
func BenchmarkSimsPerSecPMU(b *testing.B) {
	c := compileG724enc(b, &pmu.Config{})
	engine := vliw.NewEngine()
	b.ResetTimer()
	sims := 0
	samples := int64(0)
	for i := 0; i < b.N; i++ {
		results, err := c.RunSweep(experiments.BufferSizes, engine)
		if err != nil {
			b.Fatal(err)
		}
		sims += len(results)
		samples = 0
		for _, r := range results {
			if r.Profile != nil {
				samples += r.Profile.Total()
			}
		}
	}
	b.ReportMetric(float64(sims)/b.Elapsed().Seconds(), "sims/sec")
	b.ReportMetric(float64(samples), "samples/sweep")
}
