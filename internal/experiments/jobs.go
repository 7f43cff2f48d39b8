package experiments

import (
	"context"
	"fmt"

	"lpbuf/internal/core"
	"lpbuf/internal/power"
	"lpbuf/internal/runner"
)

// This file schedules the figure computations on the Suite's runner.
// Every figure is a parallel map plus a reduce: each (bench, cfg) item
// compiles, then simulates or analyses, as two jobs of one runner
// item; a reduce job then assembles the rows in benchmark-table order,
// which keeps every renderer's output byte-identical to a serial run
// regardless of completion order. The compile/simulate jobs land in
// the Suite's singleflight caches, so concurrent figure requests — and
// repeated requests within one process — never compile a (bench, cfg)
// pair or simulate a (bench, cfg, buffer) triple twice.

// compileJob compiles one (benchmark, config) pair through the cache.
func (s *Suite) compileJob(ctx context.Context, name, cfg string) (*core.Compiled, error) {
	var c *core.Compiled
	err := s.run.Job(ctx, runner.KindCompile, "compile/"+name+"/"+cfg, func() (err error) {
		c, _, err = s.compiled(name, cfg)
		return err
	})
	return c, err
}

// reduce runs fn as a figure's reduce job.
func reduce[T any](ctx context.Context, s *Suite, key string, fn func() T) (T, error) {
	var out T
	err := s.run.Job(ctx, runner.KindReduce, key, func() error {
		out = fn()
		return nil
	})
	return out, err
}

// Figure7Ctx is Figure7 with caller-controlled cancellation. Each
// benchmark's sweep is one batched simulate job — the program executes
// once and is accounted at every buffer size — so the figure is 11
// compiles, 11 sweep simulates and 1 reduce however many sizes the
// sweep covers.
func (s *Suite) Figure7Ctx(ctx context.Context, cfg string, sizes []int) ([]Fig7Row, error) {
	names := Benchmarks()
	sweeps := make([][]*Run, len(names))
	err := s.run.Execute(ctx, len(names), func(ctx context.Context, i int) error {
		name := names[i]
		if _, err := s.compileJob(ctx, name, cfg); err != nil {
			return err
		}
		return s.run.Job(ctx, runner.KindSimulate, "simulate/"+name+"/"+cfg+"/sweep", func() (err error) {
			sweeps[i], err = s.RunSweepAt(name, cfg, sizes)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return reduce(ctx, s, "reduce/figure7/"+cfg, func() []Fig7Row {
		var rows []Fig7Row
		for i, name := range names {
			row := Fig7Row{Bench: name, Ratios: map[int]float64{}}
			for j, sz := range sizes {
				row.Ratios[sz] = sweeps[i][j].Stats.BufferIssueRatio()
			}
			rows = append(rows, row)
		}
		return rows
	})
}

// pairRuns compiles every benchmark under both configs and simulates
// each compile at the 256-op buffer: one item per (benchmark, config),
// a compile job then a simulate job. Results are indexed
// [benchmark][config].
func (s *Suite) pairRuns(ctx context.Context, cfgs [2]string) ([][2]*core.Compiled, [][2]*Run, error) {
	names := Benchmarks()
	cs := make([][2]*core.Compiled, len(names))
	runs := make([][2]*Run, len(names))
	err := s.run.Execute(ctx, 2*len(names), func(ctx context.Context, i int) error {
		b, k := i/2, i%2
		name, cfg := names[b], cfgs[k]
		c, err := s.compileJob(ctx, name, cfg)
		if err != nil {
			return err
		}
		cs[b][k] = c
		return s.run.Job(ctx, runner.KindSimulate, fmt.Sprintf("simulate/%s/%s@256", name, cfg), func() (err error) {
			runs[b][k], err = s.RunAt(name, cfg, 256)
			return err
		})
	})
	return cs, runs, err
}

// paperConfigs are the two configurations the paper compares.
var paperConfigs = [2]string{"traditional", "aggressive"}

// Figure8aCtx is Figure8a with caller-controlled cancellation.
func (s *Suite) Figure8aCtx(ctx context.Context) ([]Fig8aRow, error) {
	_, runs, err := s.pairRuns(ctx, paperConfigs)
	if err != nil {
		return nil, err
	}
	return reduce(ctx, s, "reduce/figure8a", func() []Fig8aRow {
		var rows []Fig8aRow
		for i, name := range Benchmarks() {
			rows = append(rows, fig8aRow(name, runs[i][0], runs[i][1]))
		}
		return rows
	})
}

// Figure8bCtx is Figure8b with caller-controlled cancellation.
func (s *Suite) Figure8bCtx(ctx context.Context) ([]Fig8bRow, error) {
	_, runs, err := s.pairRuns(ctx, paperConfigs)
	if err != nil {
		return nil, err
	}
	return reduce(ctx, s, "reduce/figure8b", func() []Fig8bRow {
		model := power.Default()
		var rows []Fig8bRow
		for i, name := range Benchmarks() {
			rows = append(rows, fig8bRow(model, name, runs[i][0], runs[i][1]))
		}
		return rows
	})
}

// ComputeHeadlineCtx is ComputeHeadline with caller-controlled
// cancellation.
func (s *Suite) ComputeHeadlineCtx(ctx context.Context) (*Headline, error) {
	_, runs, err := s.pairRuns(ctx, paperConfigs)
	if err != nil {
		return nil, err
	}
	return reduce(ctx, s, "reduce/headline", func() *Headline {
		return reduceHeadline(Benchmarks(), runs)
	})
}

// Figure3Ctx is Figure3 with caller-controlled cancellation. Each
// benchmark's predication analysis runs as its own job behind the
// aggressive compile.
func (s *Suite) Figure3Ctx(ctx context.Context) (*Fig3, error) {
	names := Benchmarks()
	parts := make([]*Fig3, len(names))
	err := s.run.Execute(ctx, len(names), func(ctx context.Context, i int) error {
		c, err := s.compileJob(ctx, names[i], "aggressive")
		if err != nil {
			return err
		}
		return s.run.Job(ctx, runner.KindAnalyze, "analyze/figure3/"+names[i], func() error {
			parts[i] = fig3ForCompiled(c)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return reduce(ctx, s, "reduce/figure3", func() *Fig3 {
		out := newFig3()
		for _, p := range parts {
			mergeFig3(out, p)
		}
		return out
	})
}
