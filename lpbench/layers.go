package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/obs"
	"lpbuf/internal/vliw"
)

// perLayer lists every per-layer metric with its unit. Each traced run
// reports all of them; a layer a workload does not exercise reads 0.
// Times and counts are per request: per cold pass on the cold
// workloads, per job on service-mix.
var perLayer = [][2]string{
	{"sched.optimal_s", "s"},
	{"sched.optimal.nodes", "count"},
	{"sched.optimal.fallbacks", "count"},
	{"sched.optimal.proven", "count"},
	{"sched.optimal.ns_per_node", "ns"},
	{"interp.ref_s", "s"},
	{"interp.reprofile_s", "s"},
	{"interp.ops", "count"},
	{"inline_s", "s"},
	{"opt_s", "s"},
	{"looptrans.transform_s", "s"},
	{"looptrans.cloopify_s", "s"},
	{"sched.heuristic_s", "s"},
	{"loopbuffer.plan_s", "s"},
	{"core.compile_s", "s"},
	{"core.self_s", "s"},
	{"core.compiles", "count"},
	{"vliw.sweep_s", "s"},
	{"vliw.sims", "count"},
	{"vliw.sim_ops", "count"},
	{"vliw.sim_ops_per_s", "1/s"},
	{"bench.build_s", "s"},
	{"bench.check_s", "s"},
	{"experiments.compile_misses", "count"},
	{"experiments.run_misses", "count"},
	{"runner.compile_busy_s", "s"},
	{"runner.simulate_busy_s", "s"},
	{"service.queue_ms", "ms"},
	{"service.store_lookup_ms", "ms"},
	{"service.build_ms", "ms"},
	{"service.store_write_ms", "ms"},
	{"service.store_hit_ratio", "ratio"},
	{"http.submit_ms", "ms"},
	{"http.artifact_ms", "ms"},
	{"share.store_hit", "ratio"},
	{"share.computed", "ratio"},
	{"share.inflight_dedup", "ratio"},
	{"share.rejected", "ratio"},
	{"residual_s", "s"},
	{"trace_overhead_s", "s"},
}

func zeroLayers(r *report) {
	for _, m := range perLayer {
		r.set(m[0], m[1], 0)
	}
}

// phaseMetric maps core.Compile's phase spans to layer metrics. The
// "schedule" span is attributed by backend (see layerTotals.add).
var phaseMetric = map[string]string{
	"reference-run": "interp.ref_s",
	"re-profile":    "interp.reprofile_s",
	"inline":        "inline_s",
	"opt":           "opt_s",
	"transform":     "looptrans.transform_s",
	"cloopify":      "looptrans.cloopify_s",
	"bufplan":       "loopbuffer.plan_s",
}

// layerTotals accumulates one replica pass (or the sum of several).
type layerTotals struct {
	phases                         map[string]float64
	heuristicS, optimalS           float64
	compileS, sweepS, checkS       float64
	buildS                         float64
	compiles                       int64
	interpOps, sims, simOps, nodes int64
	fallbacks, proven              int64
}

func (t *layerTotals) add(o *layerTotals) {
	if t.phases == nil {
		t.phases = map[string]float64{}
	}
	for k, v := range o.phases {
		t.phases[k] += v
	}
	t.heuristicS += o.heuristicS
	t.optimalS += o.optimalS
	t.compileS += o.compileS
	t.sweepS += o.sweepS
	t.checkS += o.checkS
	t.buildS += o.buildS
	t.compiles += o.compiles
	t.interpOps += o.interpOps
	t.sims += o.sims
	t.simOps += o.simOps
	t.nodes += o.nodes
	t.fallbacks += o.fallbacks
	t.proven += o.proven
}

// layerSum is the busy time of the disjoint top-level layers.
func (t *layerTotals) layerSum() float64 { return t.buildS + t.compileS + t.sweepS + t.checkS }

// sameWork reports whether o did exactly the work t did: the counts a
// deterministic pipeline must repeat.
func (t *layerTotals) sameWork(o *layerTotals) error {
	a := [...]int64{t.compiles, t.interpOps, t.sims, t.simOps, t.nodes, t.fallbacks, t.proven}
	b := [...]int64{o.compiles, o.interpOps, o.sims, o.simOps, o.nodes, o.fallbacks, o.proven}
	if a != b {
		return fmt.Errorf("work changed between iterations: compiles/interp ops/sims/sim ops/nodes/fallbacks/proven %v -> %v", a, b)
	}
	return nil
}

// report sets the per-layer metrics as per-iteration means.
func (t *layerTotals) report(r *report, iters int) {
	n := float64(iters)
	phaseSum := 0.0
	for span, name := range phaseMetric {
		r.set(name, "s", t.phases[span]/n)
		phaseSum += t.phases[span]
	}
	phaseSum += t.heuristicS + t.optimalS
	r.set("sched.heuristic_s", "s", t.heuristicS/n)
	r.set("sched.optimal_s", "s", t.optimalS/n)
	r.set("sched.optimal.nodes", "count", float64(t.nodes)/n)
	r.set("sched.optimal.fallbacks", "count", float64(t.fallbacks)/n)
	r.set("sched.optimal.proven", "count", float64(t.proven)/n)
	if t.nodes > 0 {
		r.set("sched.optimal.ns_per_node", "ns", t.optimalS*1e9/float64(t.nodes))
	}
	r.set("interp.ops", "count", float64(t.interpOps)/n)
	r.set("core.compile_s", "s", t.compileS/n)
	r.set("core.self_s", "s", (t.compileS-phaseSum)/n)
	r.set("core.compiles", "count", float64(t.compiles)/n)
	r.set("vliw.sweep_s", "s", t.sweepS/n)
	r.set("vliw.sims", "count", float64(t.sims)/n)
	r.set("vliw.sim_ops", "count", float64(t.simOps)/n)
	if t.sweepS > 0 {
		r.set("vliw.sim_ops_per_s", "1/s", float64(t.simOps)/t.sweepS)
	}
	r.set("bench.build_s", "s", t.buildS/n)
	r.set("bench.check_s", "s", t.checkS/n)
}

// runReplica does a cold pass's compile and simulation work by calling
// each module's public entry points directly — bench.Build,
// core.Compile (with a span trace splitting it into phases),
// Compiled.RunSweep or RunWithBuffer, Benchmark.Check — timing each
// call. Phases run one after another on at most workers goroutines,
// mirroring the figure graphs of the request.
func runReplica(phases [][]unit) (*layerTotals, error) {
	total := &layerTotals{phases: map[string]float64{}}
	engine := vliw.NewEngine()
	var mu sync.Mutex
	var firstErr error
	for _, units := range phases {
		parallel(len(units), func(i int) {
			lt, err := runUnit(units[i], engine)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			total.add(lt)
		})
		if firstErr != nil {
			return nil, firstErr
		}
	}
	return total, nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

func runUnit(u unit, engine *vliw.Engine) (*layerTotals, error) {
	lt := &layerTotals{compiles: 1}
	b, ok := suite.ByName(u.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", u.bench)
	}
	base, optimal := strings.CutSuffix(u.cfg, "-optimal")
	var cfg core.Config
	switch base {
	case "traditional":
		cfg = core.Traditional(256)
	case "aggressive":
		cfg = core.Aggressive(256)
	default:
		return nil, fmt.Errorf("unknown config %q", u.cfg)
	}
	cfg.Name = u.cfg
	cfg.TraceLabel = u.bench
	if optimal {
		cfg.SchedBackend = "optimal"
	}
	tr := obs.NewTrace(0)
	cfg.Obs = &obs.Obs{Trace: tr}

	t := time.Now()
	prog := b.Build()
	lt.buildS = since(t)
	t = time.Now()
	c, err := core.Compile(prog, cfg)
	lt.compileS = since(t)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", u.bench, u.cfg, err)
	}
	spans, err := spanTotals(tr)
	if err != nil {
		return nil, err
	}
	lt.phases = map[string]float64{}
	for span := range phaseMetric {
		lt.phases[span] = spans[span]
	}
	if optimal {
		lt.optimalS = spans["schedule"]
	} else {
		lt.heuristicS = spans["schedule"]
	}
	lt.interpOps = c.Ref.Ops
	lt.nodes = c.Stats.SchedNodes
	lt.fallbacks = int64(c.Stats.SchedFallbacks)
	lt.proven = int64(c.Stats.ProvenKernels)
	// Simulate without the compile's trace, as the untraced Suite does.
	c.Config.Obs = nil

	var results []*vliw.Result
	t = time.Now()
	if u.sweep {
		results, err = c.RunSweep(u.sizes, engine)
	} else {
		for _, sz := range u.sizes {
			var res *vliw.Result
			if res, err = c.RunWithBuffer(sz); err != nil {
				break
			}
			results = append(results, res)
		}
	}
	lt.sweepS = since(t)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", u.bench, u.cfg, err)
	}
	for _, res := range results {
		lt.sims++
		lt.simOps += res.Stats.OpsIssued
	}
	// A batched sweep shares one memory image, so it is checked once.
	checked := results
	if u.sweep {
		checked = results[:1]
	}
	t = time.Now()
	for _, res := range checked {
		if err := b.Check(res.Mem); err != nil {
			return nil, fmt.Errorf("%s/%s: output check: %w", u.bench, u.cfg, err)
		}
	}
	lt.checkS = since(t)
	return lt, nil
}

// spanTotals sums a trace's span durations by span name, in seconds,
// read through its Chrome trace-event export.
func spanTotals(tr *obs.Trace) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr, nil); err != nil {
		return nil, err
	}
	return parseSpans(buf.Bytes())
}

// parseSpans sums the complete ("X") events of a Chrome trace by name.
func parseSpans(data []byte) (map[string]float64, error) {
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	out := map[string]float64{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			out[ev.Name] += float64(ev.Dur) / 1e6
		}
	}
	return out, nil
}
