package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/experiments"
	"lpbuf/internal/obs/perfgate"
	"lpbuf/internal/runner"
)

// step regenerates one figure (or figure group) of a request into art.
type step func(s *experiments.Suite, art *experiments.Artifact) error

// unit is one (benchmark, config) compile of the traced replica with
// the buffer sizes its simulations cover.
type unit struct {
	bench, cfg string
	sizes      []int
	// sweep runs the sizes as one batched simulation (RunSweep);
	// otherwise each size is a solo run (RunWithBuffer), as RunAt does.
	sweep bool
}

// coldKind defines one cold workload.
type coldKind struct {
	name  string
	steps []step
	// compiles and runs are the experiments-cache misses one cold
	// pass must cause, exactly.
	compiles, runs int64
	// full makes the oracle check the whole sim-stat baseline
	// document; otherwise only the Figure 7 rows are checked.
	full bool
	// burst is how many warm Figure 7 re-requests follow the pass's
	// first step, which must be fig7Step. They are timed together as
	// one warm sample, reported per re-request: a sub-millisecond
	// re-request is below a 2-vCPU VM's scheduling jitter, while a phase
	// of a few hundred milliseconds averages it.
	burst int
	// phases lists the replica's units in the order the request's
	// figure graphs first compile them; each phase ends at a barrier,
	// as each figure graph does.
	phases [][]unit
}

func fig7Step(s *experiments.Suite, art *experiments.Artifact) error {
	art.Figure7 = map[string][]experiments.Fig7Row{}
	for _, cfg := range []string{"traditional", "aggressive"} {
		rows, err := s.Figure7(cfg, experiments.BufferSizes)
		if err != nil {
			return err
		}
		art.Figure7[cfg] = rows
	}
	return nil
}

func benchUnits(cfg string, sizes []int, sweep bool) []unit {
	var us []unit
	for _, name := range experiments.Benchmarks() {
		us = append(us, unit{bench: name, cfg: cfg, sizes: sizes, sweep: sweep})
	}
	return us
}

// fig7Cold is a cold Figure 7: traditional and aggressive, the 8 paper
// buffer sizes, on a fresh Suite.
var fig7Cold = coldKind{
	name:     "fig7-cold",
	steps:    []step{fig7Step},
	compiles: 22,
	runs:     176,
	burst:    1500,
	phases: [][]unit{
		benchUnits("traditional", experiments.BufferSizes, true),
		benchUnits("aggressive", experiments.BufferSizes, true),
	},
}

// allCold regenerates everything `lpbuf -all` regenerates, in its
// order, on a fresh Suite.
var allCold = coldKind{
	name: "all-cold",
	steps: []step{
		fig7Step,
		func(s *experiments.Suite, art *experiments.Artifact) (err error) {
			art.Figure8a, err = s.Figure8a()
			return err
		},
		func(s *experiments.Suite, art *experiments.Artifact) (err error) {
			art.Figure8b, err = s.Figure8b()
			return err
		},
		func(s *experiments.Suite, art *experiments.Artifact) (err error) {
			art.Figure3, err = s.Figure3()
			return err
		},
		func(s *experiments.Suite, art *experiments.Artifact) error {
			art.Figure5 = nil
			for _, sz := range []int{16, 32, 64} {
				f5, err := s.Figure5(sz)
				if err != nil {
					return err
				}
				art.Figure5 = append(art.Figure5, f5)
			}
			return nil
		},
		func(s *experiments.Suite, art *experiments.Artifact) (err error) {
			art.Shootout, err = s.Shootout()
			return err
		},
		func(s *experiments.Suite, art *experiments.Artifact) (err error) {
			art.Encoding, err = s.EncodingCosts()
			return err
		},
		func(s *experiments.Suite, art *experiments.Artifact) (err error) {
			art.Headline, err = s.ComputeHeadline()
			return err
		},
	},
	compiles: 33,
	// 22 Figure 7 sweeps of 8 sizes, plus the shoot-out's 11
	// aggressive-optimal runs at 256 ops; every other figure hits.
	runs:  187,
	full:  true,
	burst: 400,
	phases: [][]unit{
		benchUnits("traditional", experiments.BufferSizes, true),
		benchUnits("aggressive", experiments.BufferSizes, true),
		benchUnits("aggressive-optimal", []int{256}, false),
	},
}

// cold is a cold-regeneration workload: each pass builds a fresh
// Suite (and so a fresh compile/run cache), regenerates the figures
// and encodes the artifact. A warm phase of burst Figure 7
// re-requests on the same Suite follows each pass's Figure 7 step.
type cold struct {
	kind coldKind
	want *perfgate.SimStats
}

func newCold(k coldKind) *cold { return &cold{kind: k} }

// setup loads the baseline, builds every benchmark program (the
// bench/suite registry and its synthesized inputs) and runs one cold
// Figure 7, which fills the process-wide vliw decode cache. The seed
// changes nothing: a cold workload's inputs are the paper's figures.
func (w *cold) setup(int64) error {
	want, err := perfgate.ReadSimStats("baselines/simstats.json")
	if err != nil {
		return err
	}
	w.want = want
	for _, b := range suite.All() {
		b.Build()
	}
	s := experiments.NewWithOptions(experiments.Options{Workers: workers})
	return fig7Step(s, experiments.NewArtifact())
}

func (w *cold) close() {}

// request runs steps in order and encodes the artifact.
func (w *cold) request(s *experiments.Suite, steps []step) ([]byte, error) {
	art := experiments.NewArtifact()
	for _, st := range steps {
		if err := st(s, art); err != nil {
			return nil, err
		}
	}
	return art.Encode()
}

// check is the output oracle of one cold pass: the pass did exactly
// the expected work, and its figures match baselines/simstats.json.
func (w *cold) check(s *experiments.Suite, data []byte) error {
	m := s.Metrics()
	if m.CacheMisses != w.kind.compiles || m.RunMisses != w.kind.runs {
		return fmt.Errorf("cold pass did %d compiles and %d runs, want exactly %d and %d",
			m.CacheMisses, m.RunMisses, w.kind.compiles, w.kind.runs)
	}
	art, err := experiments.DecodeArtifact(data)
	if err != nil {
		return err
	}
	if drifts := perfgate.CompareSimStats(fig7Only(w.want), fig7Doc(art), perfgate.DefaultBaselineTolerance()); len(drifts) > 0 {
		return fmt.Errorf("figure 7 differs from the baseline: %s", perfgate.RenderDrifts(drifts))
	}
	if !w.kind.full {
		return nil
	}
	// The remaining figures come from the same memoized runs the
	// sim-stat document reads, so checking the document checks them.
	doc, err := s.SimStats(w.want.BufferSizes)
	if err != nil {
		return err
	}
	if drifts := perfgate.CompareSimStats(w.want, doc, perfgate.DefaultBaselineTolerance()); len(drifts) > 0 {
		return fmt.Errorf("sim stats differ from the baseline: %s", perfgate.RenderDrifts(drifts))
	}
	return nil
}

// fig7Only keeps the Figure 7 traditional and aggressive curves of a
// sim-stat document.
func fig7Only(doc *perfgate.SimStats) *perfgate.SimStats {
	out := perfgate.NewSimStats(doc.BufferSizes)
	for bench, cfgs := range doc.Benchmarks {
		for _, cfg := range []string{"traditional", "aggressive"} {
			if st := cfgs[cfg]; st != nil {
				if out.Benchmarks[bench] == nil {
					out.Benchmarks[bench] = map[string]*perfgate.BenchConfigStats{}
				}
				out.Benchmarks[bench][cfg] = &perfgate.BenchConfigStats{BufferPct: st.BufferPct}
			}
		}
	}
	return out
}

// fig7Doc is the sim-stat view of an artifact's Figure 7 rows.
func fig7Doc(art *experiments.Artifact) *perfgate.SimStats {
	out := perfgate.NewSimStats(art.BufferSizes)
	for cfg, rows := range art.Figure7 {
		for _, row := range rows {
			st := &perfgate.BenchConfigStats{BufferPct: map[int]float64{}}
			for sz, ratio := range row.Ratios {
				st.BufferPct[sz] = 100 * ratio
			}
			if out.Benchmarks[row.Bench] == nil {
				out.Benchmarks[row.Bench] = map[string]*perfgate.BenchConfigStats{}
			}
			out.Benchmarks[row.Bench][cfg] = st
		}
	}
	return out
}

// samples collects a cold run's measurements.
type samples struct {
	computedMS, hitMS, cpuS []float64
	busy                    time.Duration
}

// measure runs cold passes, each with its warm phase, until d has
// passed.
func (w *cold) measure(d time.Duration) *report {
	r := newReport()
	var m samples
	hp := startHeapPeak()
	start := time.Now()
	for n, last := 0, time.Duration(0); n == 0 || time.Since(start)+last/2 < d; n++ {
		iter := time.Now()
		w.pass(r, &m)
		last = time.Since(iter)
	}
	r.set("heap_peak_mb", "MiB", hp.mb())
	r.set("computed_p50_ms", "ms", quantile(m.computedMS, 0.5))
	r.set("computed_p90_ms", "ms", quantile(m.computedMS, 0.9))
	r.set("hit_p50_ms", "ms", quantile(m.hitMS, 0.5))
	r.set("hit_p99_ms", "ms", quantile(m.hitMS, 0.99))
	r.set("cpu_s", "s", quantile(m.cpuS, 0.5))
	r.set("jobs_per_s", "1/s", float64(len(m.computedMS)+w.kind.burst*len(m.hitMS))/m.busy.Seconds())
	r.note("cold passes %d: wall %s, cpu %s", len(m.computedMS), fmtList(m.computedMS, "%.0fms"), fmtList(m.cpuS, "%.2fs"))
	r.note("warm phases of %d re-requests: %s per re-request", w.kind.burst, fmtList(m.hitMS, "%.3fms"))
	return r
}

// pass is one cold pass with its warm phase and output check. The
// warm phase runs right after the pass's first step, Figure 7, while
// the heap holds only what Figure 7 built, so both cold workloads time
// their warm requests in the same state; its time and a GC before it
// are kept off the cold pass's clock.
func (w *cold) pass(r *report, m *samples) {
	gc()
	s := experiments.NewWithOptions(experiments.Options{Workers: workers})
	art := experiments.NewArtifact()
	r.attempted++
	c0, t0 := cpuSeconds(), time.Now()
	err := w.kind.steps[0](s, art)
	wall, cpu := time.Since(t0), cpuSeconds()-c0
	if err != nil {
		r.fail("cold pass: %v", err)
		return
	}
	fig7, err := art.Encode()
	if err != nil {
		r.fail("cold pass: %v", err)
		return
	}
	w.warm(r, m, s, fig7)

	c0, t0 = cpuSeconds(), time.Now()
	for _, st := range w.kind.steps[1:] {
		if err = st(s, art); err != nil {
			break
		}
	}
	var data []byte
	if err == nil {
		data, err = art.Encode()
	}
	wall, cpu = wall+time.Since(t0), cpu+cpuSeconds()-c0
	if err != nil {
		r.fail("cold pass: %v", err)
		return
	}
	m.busy += wall
	m.computedMS = append(m.computedMS, float64(wall)/1e6)
	m.cpuS = append(m.cpuS, cpu)
	if err := w.check(s, data); err != nil {
		r.fail("cold pass: %v", err)
	}
}

// warm is the warm phase: burst Figure 7 re-requests on s, timed
// together, each answered from the Suite's memo with exactly the bytes
// the cold step encoded and no new work. (Warm re-requests of the
// other -all figures make a poorer hit class: they mostly re-encode
// large sections, GC-bound time that spread up to 0.27 between runs on
// a 2-vCPU VM, and Figure 3 and the encoding table re-analyse the
// compiles on every call.)
func (w *cold) warm(r *report, m *samples, s *experiments.Suite, want []byte) {
	before := s.Metrics()
	gc()
	t0 := time.Now()
	ok := true
	for b := 0; b < w.kind.burst; b++ {
		again, err := w.request(s, []step{fig7Step})
		r.attempted++
		if err != nil || !bytes.Equal(again, want) {
			r.fail("warm request: differs from the cold Figure 7 (%v)", err)
			ok = false
		}
	}
	if lat := time.Since(t0); ok {
		m.busy += lat
		m.hitMS = append(m.hitMS, float64(lat)/1e6/float64(w.kind.burst))
	}
	if after := s.Metrics(); after.CacheMisses != before.CacheMisses || after.RunMisses != before.RunMisses {
		r.fail("warm requests compiled or simulated: misses %d/%d -> %d/%d",
			before.CacheMisses, before.RunMisses, after.CacheMisses, after.RunMisses)
	}
}

// trace alternates an untraced reference pass (observed only through
// the public runner event stream and Suite.Metrics) with a traced
// replica of the same work that times each module's public calls.
func (w *cold) trace(d time.Duration) *report {
	r := newReport()
	zeroLayers(r)
	var refWall, refCPU, overhead, residual []float64
	var compileBusy, simBusy, compileMisses, runMisses []float64
	var sum layerTotals
	var first *layerTotals
	iters := 0
	start := time.Now()
	for last := time.Duration(0); iters == 0 || time.Since(start)+last/2 < d; {
		iter := time.Now()
		gc()
		var mu sync.Mutex
		kindBusy := map[runner.Kind]time.Duration{}
		s := experiments.NewWithOptions(experiments.Options{Workers: workers,
			OnEvent: func(e runner.Event) {
				if e.Type == runner.EventDone {
					mu.Lock()
					kindBusy[e.Kind] += e.Elapsed
					mu.Unlock()
				}
			}})
		c0, t0 := cpuSeconds(), time.Now()
		data, err := w.request(s, w.kind.steps)
		wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
		r.attempted++
		if err != nil {
			r.fail("reference pass: %v", err)
			break
		}
		m := s.Metrics()
		if err := w.check(s, data); err != nil {
			r.fail("reference pass: %v", err)
		}

		gc()
		t0 = time.Now()
		lt, err := runReplica(w.kind.phases)
		traced := time.Since(t0).Seconds()
		r.attempted++
		if err != nil {
			r.fail("traced replica: %v", err)
			break
		}
		if first == nil {
			first = lt
		} else if err := first.sameWork(lt); err != nil {
			r.fail("traced replica: %v", err)
		}
		sum.add(lt)
		iters++
		refWall = append(refWall, wall)
		refCPU = append(refCPU, cpu)
		overhead = append(overhead, traced-wall)
		residual = append(residual, cpu-lt.layerSum())
		mu.Lock()
		compileBusy = append(compileBusy, kindBusy[runner.KindCompile].Seconds())
		simBusy = append(simBusy, kindBusy[runner.KindSimulate].Seconds())
		mu.Unlock()
		compileMisses = append(compileMisses, float64(m.CacheMisses))
		runMisses = append(runMisses, float64(m.RunMisses))
		last = time.Since(iter)
	}
	if iters == 0 {
		return r
	}
	sum.report(r, iters)
	r.set("experiments.compile_misses", "count", mean(compileMisses))
	r.set("experiments.run_misses", "count", mean(runMisses))
	r.set("runner.compile_busy_s", "s", mean(compileBusy))
	r.set("runner.simulate_busy_s", "s", mean(simBusy))
	r.set("residual_s", "s", mean(residual))
	r.set("trace_overhead_s", "s", mean(overhead))
	r.note("iterations %d: untraced wall %s cpu %s, traced-minus-untraced wall %s",
		iters, fmtList(refWall, "%.2fs"), fmtList(refCPU, "%.2fs"), fmtList(overhead, "%+.2fs"))
	return r
}
