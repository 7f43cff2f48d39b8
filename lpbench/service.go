package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"lpbuf/internal/experiments"
	"lpbuf/internal/obs"
	"lpbuf/internal/service"
)

// The service-mix traffic: clients closed-loop clients, each sending
// its next job only after the previous reply. Each client deals its
// jobs from a seeded shuffle of a deck: every warm spec warmRepeats
// times, novelFig7 novel Figure 7 jobs and novelFig5 novel Figure 5
// jobs, so 10% of jobs are novel whatever the seed.
const (
	clients     = workers
	warmRepeats = 3
	novelFig7   = 3
	novelFig5   = 1
	// heapJobs is the number of jobs served at which heap_peak_mb is
	// read.
	heapJobs = 500
	// fig7Sims is the simulations one novel Figure 7 job runs:
	// 11 benchmarks x 2 configs x 2 fresh sizes.
	fig7Sims = 44
)

// warmSpecs are the repeated jobs. Set-up computes each once, so in
// the measured run they are store hits.
var warmSpecs = []service.JobSpec{
	{Figures: []string{"7"}},
	{Figures: []string{"8a"}},
	{Figures: []string{"8b"}},
	{Figures: []string{"headline"}},
	{Figures: []string{"5"}},
	{Figures: []string{"3"}},
	{Figures: []string{"encoding"}},
	{Figures: []string{"7", "8a", "8b", "headline"}},
	{Figures: []string{"5"}, Fig5Sizes: []int{128}},
	{Figures: []string{"7"}, Fig7Sizes: []int{64, 256}},
	{Figures: []string{"8a", "8b"}},
	{Figures: []string{"3", "5"}},
}

// serviceMix runs one in-process lpbufd (default MaxJobs, a fresh
// store) behind its HTTP handler on a loopback listener.
type serviceMix struct {
	dir    string
	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	warm   []service.JobSpec
	// warmData is each warm spec's artifact, by content key, as set-up
	// computed it; every later repeat must be byte-identical.
	warmData map[string][]byte
	rngs     []*rand.Rand
	decks    [][]int
	used     []map[int]bool
}

func (w *serviceMix) setup(seed int64) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "lpbench-store-")
	if err != nil {
		return err
	}
	w.dir = dir
	cfg := service.DefaultConfig()
	cfg.StoreDir = dir
	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	srv.SetSlog(slog.New(slog.NewTextHandler(io.Discard, nil)))
	srv.Start()
	w.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		if err := w.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "lpbench: serve:", err)
		}
	}()
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}

	w.warm = nil
	w.warmData = map[string][]byte{}
	for _, spec := range warmSpecs {
		spec.Schema = service.JobSchema
		res := w.job(spec)
		if res.err != nil {
			return fmt.Errorf("warm %v: %w", spec.Figures, res.err)
		}
		if res.cache != "computed" {
			return fmt.Errorf("warm %v: served %q, want computed", spec.Figures, res.cache)
		}
		if _, err := experiments.DecodeArtifact(res.data); err != nil {
			return fmt.Errorf("warm %v: %w", spec.Figures, err)
		}
		w.warm = append(w.warm, spec)
		w.warmData[res.status.Key] = res.data
	}
	w.rngs, w.decks, w.used = nil, make([][]int, clients), nil
	for c := 0; c < clients; c++ {
		w.rngs = append(w.rngs, rand.New(rand.NewSource(seed*7919+int64(c))))
		w.used = append(w.used, map[int]bool{})
	}
	return nil
}

func (w *serviceMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if w.hs != nil {
		if err := w.hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench: http shutdown:", err)
		}
		<-w.served
		w.hs = nil
	}
	if w.srv != nil {
		if err := w.srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench: drain:", err)
		}
		w.srv = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dir != "" {
		if err := os.RemoveAll(w.dir); err != nil {
			fmt.Fprintln(os.Stderr, "lpbench:", err)
		}
		w.dir = ""
	}
}

// jobResult is one job as its client saw it.
type jobResult struct {
	spec       service.JobSpec
	novel      bool
	sims       int64
	status     service.JobStatus
	cache      string // X-Lpbuf-Cache
	data       []byte
	rejected   bool
	err        error
	submitMS   float64
	artifactMS float64
}

func (j *jobResult) latencyMS() float64 { return j.submitMS + j.artifactMS }

// job submits spec with ?wait=true and fetches its artifact. A 429 or
// 503 is a rejection and is never retried.
func (w *serviceMix) job(spec service.JobSpec) *jobResult {
	res := &jobResult{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		res.err = err
		return res
	}
	t0 := time.Now()
	resp, err := w.client.Post(w.base+"/v1/jobs?wait=true", "application/json", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.submitMS = float64(time.Since(t0)) / 1e6
	switch {
	case err != nil:
		res.err = err
		return res
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		res.rejected = true
		res.err = fmt.Errorf("rejected: %s", resp.Status)
		return res
	case resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(data))
		return res
	}
	if err := json.Unmarshal(data, &res.status); err != nil {
		res.err = fmt.Errorf("submit: %w", err)
		return res
	}
	if res.status.State != service.StateDone {
		res.err = fmt.Errorf("job %s %s: %s", res.status.ID, res.status.State, res.status.Error)
		return res
	}
	t0 = time.Now()
	resp, err = w.client.Get(w.base + res.status.ArtifactURL)
	if err != nil {
		res.err = err
		return res
	}
	res.data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.artifactMS = float64(time.Since(t0)) / 1e6
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("artifact: %s", resp.Status)
	}
	res.err = err
	res.cache = resp.Header.Get("X-Lpbuf-Cache")
	return res
}

// Deck cards past the warm specs' indices.
const (
	cardFig7 = -1
	cardFig5 = -2
)

// nextSpec deals client c's next job from its seeded deck.
func (w *serviceMix) nextSpec(c int) (spec service.JobSpec, novel bool, sims int64) {
	rng := w.rngs[c]
	if len(w.decks[c]) == 0 {
		var deck []int
		for i := range w.warm {
			for k := 0; k < warmRepeats; k++ {
				deck = append(deck, i)
			}
		}
		for k := 0; k < novelFig7; k++ {
			deck = append(deck, cardFig7)
		}
		for k := 0; k < novelFig5; k++ {
			deck = append(deck, cardFig5)
		}
		rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		w.decks[c] = deck
	}
	card := w.decks[c][0]
	w.decks[c] = w.decks[c][1:]
	if card >= 0 {
		return w.warm[card], false, 0
	}
	spec = service.JobSpec{Schema: service.JobSchema, Client: fmt.Sprintf("lpbench-%d", c)}
	if card == cardFig7 {
		spec.Figures = []string{"7"}
		spec.Fig7Sizes = []int{w.freshSize(c), w.freshSize(c)}
		slices.Sort(spec.Fig7Sizes)
		return spec, true, fig7Sims
	}
	spec.Figures = []string{"5"}
	spec.Fig5Sizes = []int{w.freshSize(c)}
	return spec, true, 1
}

// freshSize draws a buffer size no earlier job has used: odd, so it
// is none of the warm set's sizes, and split between clients by
// residue mod 4 so the two streams never collide.
func (w *serviceMix) freshSize(c int) int {
	for {
		sz := 4*(5+w.rngs[c].Intn(1000)) + 1 + 2*c
		if !w.used[c][sz] {
			w.used[c][sz] = true
			return sz
		}
	}
}

// check is the output oracle of one job.
func (w *serviceMix) check(res *jobResult) error {
	if res.err != nil {
		return res.err
	}
	if !res.novel {
		if res.cache != "store-hit" || res.status.Resources == nil || res.status.Resources.Provenance != "store-hit" {
			return fmt.Errorf("repeat of %v served %q, want store-hit", res.spec.Figures, res.cache)
		}
		if !bytes.Equal(res.data, w.warmData[res.status.Key]) {
			return fmt.Errorf("repeat of %v: artifact bytes differ", res.spec.Figures)
		}
		return nil
	}
	if res.cache != "computed" && res.cache != "inflight-dedup" {
		return fmt.Errorf("novel %v served %q", res.spec.Figures, res.cache)
	}
	art, err := experiments.DecodeArtifact(res.data)
	if err != nil {
		return err
	}
	nb := len(experiments.Benchmarks())
	switch res.spec.Figures[0] {
	case "7":
		if !slices.Equal(art.BufferSizes, res.spec.Fig7Sizes) ||
			len(art.Figure7["traditional"]) != nb || len(art.Figure7["aggressive"]) != nb {
			return fmt.Errorf("novel figure 7 %v: wrong shape", res.spec.Fig7Sizes)
		}
	case "5":
		if len(art.Figure5) != 1 || art.Figure5[0].BufferOps != res.spec.Fig5Sizes[0] {
			return fmt.Errorf("novel figure 5 %v: wrong shape", res.spec.Fig5Sizes)
		}
	}
	return nil
}

// traffic runs the closed loop for d and returns every job. perJob,
// when set, runs on the client's goroutine after each job (outside
// its timing).
func (w *serviceMix) traffic(d time.Duration, perJob func(*jobResult)) []*jobResult {
	var mu sync.Mutex
	var all []*jobResult
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				spec, novel, sims := w.nextSpec(c)
				res := w.job(spec)
				res.novel, res.sims = novel, sims
				if perJob != nil {
					perJob(res)
				}
				mu.Lock()
				all = append(all, res)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return all
}

// registry reads the service's /metrics snapshot.
func (w *serviceMix) registry() (obs.RegistrySnapshot, error) {
	var snap obs.RegistrySnapshot
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// window is one measured stretch of traffic with its checks applied.
type window struct {
	jobs                             []*jobResult
	wall, cpu                        float64
	hitMS, computedMS                []float64
	hits, computed, dedup, rejected  int
	storeHits, storeMisses, simRuns  int64
	simOps, runMisses, compileMisses int64
	expectedSims                     int64
}

func (w *serviceMix) window(r *report, d time.Duration, perJob func(*jobResult)) *window {
	win := &window{}
	before, err := w.registry()
	if err != nil {
		r.fail("metrics: %v", err)
		return win
	}
	c0, t0 := cpuSeconds(), time.Now()
	win.jobs = w.traffic(d, perJob)
	win.wall, win.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	after, err := w.registry()
	if err != nil {
		r.fail("metrics: %v", err)
		return win
	}
	delta := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	win.storeHits, win.storeMisses = delta("service.store_hits"), delta("service.store_misses")
	win.simRuns = delta("sim.runs")
	win.simOps = delta("sim.ops_issued")
	win.runMisses = delta("runner.run_cache_misses")
	win.compileMisses = delta("runner.compile_cache_misses")
	for _, res := range win.jobs {
		r.attempted++
		switch {
		case res.rejected:
			win.rejected++
		case res.cache == "store-hit":
			win.hits++
		case res.cache == "inflight-dedup":
			win.dedup++
		case res.cache == "computed":
			win.computed++
		}
		if err := w.check(res); err != nil {
			r.fail("%v", err)
			continue
		}
		if res.novel {
			win.computedMS = append(win.computedMS, res.latencyMS())
			if res.cache == "computed" {
				win.expectedSims += res.sims
			}
		} else {
			win.hitMS = append(win.hitMS, res.latencyMS())
		}
	}
	// Exact work: only the novel jobs simulated, and nothing compiled.
	if win.runMisses != win.expectedSims || win.compileMisses != 0 {
		r.fail("window ran %d sims and %d compiles, want exactly %d and 0",
			win.runMisses, win.compileMisses, win.expectedSims)
	}
	n := float64(len(win.jobs))
	r.note("jobs %d in %.1fs: shares store-hit %.3f, computed %.3f, inflight-dedup %.3f, rejected %.3f",
		len(win.jobs), win.wall, float64(win.hits)/n, float64(win.computed)/n,
		float64(win.dedup)/n, float64(win.rejected)/n)
	return win
}

func (win *window) shares(r *report) {
	n := float64(max(len(win.jobs), 1))
	r.set("share.store_hit", "ratio", float64(win.hits)/n)
	r.set("share.computed", "ratio", float64(win.computed)/n)
	r.set("share.inflight_dedup", "ratio", float64(win.dedup)/n)
	r.set("share.rejected", "ratio", float64(win.rejected)/n)
}

func (w *serviceMix) measure(d time.Duration) *report {
	r := newReport()
	before := liveHeapMB()
	win := w.window(r, d, nil)
	after := liveHeapMB()
	// The server keeps every job it has served, so its live heap grows
	// by about the same amount per job. Report it at heapJobs jobs,
	// between the readings before and after the window, so that it
	// does not follow throughput.
	heap := after
	if n := len(win.jobs); n > heapJobs {
		heap = before + (after-before)*heapJobs/float64(n)
	}
	r.set("heap_peak_mb", "MiB", heap)
	r.set("jobs_per_s", "1/s", float64(len(win.jobs))/win.wall)
	r.set("hit_p50_ms", "ms", quantile(win.hitMS, 0.5))
	r.set("hit_p99_ms", "ms", quantile(win.hitMS, 0.99))
	r.set("computed_p50_ms", "ms", quantile(win.computedMS, 0.5))
	r.set("computed_p90_ms", "ms", quantile(win.computedMS, 0.9))
	r.set("cpu_s", "s", win.cpu/float64(max(len(win.computedMS), 1)))
	r.note("samples: %d hits, %d computed", len(win.hitMS), len(win.computedMS))
	return r
}

// trace runs an untraced window, then a traced one that also reads
// each job's status resources and span tree (the job trace route).
func (w *serviceMix) trace(d time.Duration) *report {
	r := newReport()
	zeroLayers(r)
	gc()
	ref := w.window(r, d/2, nil)

	var mu sync.Mutex
	spans := map[string]float64{}
	var queueMS float64
	gc()
	win := w.window(r, d-d/2, func(res *jobResult) {
		if res.err != nil {
			return
		}
		resp, err := w.client.Get(w.base + res.status.TraceURL)
		if err != nil {
			res.err = err
			return
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("trace: %s", resp.Status)
		}
		var sp map[string]float64
		if err == nil {
			sp, err = parseSpans(data)
		}
		if err != nil {
			res.err = err
			return
		}
		mu.Lock()
		defer mu.Unlock()
		for k, v := range sp {
			spans[k] += v
		}
		if res.status.Resources != nil {
			queueMS += res.status.Resources.QueueMS
		}
	})
	n := float64(max(len(win.jobs), 1))
	win.shares(r)
	r.set("service.queue_ms", "ms", queueMS/n)
	r.set("service.store_lookup_ms", "ms", 1e3*spans["store_lookup"]/n)
	r.set("service.build_ms", "ms", 1e3*spans["build"]/n)
	r.set("service.store_write_ms", "ms", 1e3*spans["store_write"]/n)
	if hm := win.storeHits + win.storeMisses; hm > 0 {
		r.set("service.store_hit_ratio", "ratio", float64(win.storeHits)/float64(hm))
	}
	var submit, artifact []float64
	for _, res := range win.jobs {
		submit = append(submit, res.submitMS)
		artifact = append(artifact, res.artifactMS)
	}
	r.set("http.submit_ms", "ms", mean(submit))
	r.set("http.artifact_ms", "ms", mean(artifact))
	// Inside a build the compiles are warm, so the batched simulations
	// (runner "job.simulate" spans, which include the output check)
	// are the compute layer.
	r.set("vliw.sweep_s", "s", spans["job.simulate"]/n)
	r.set("vliw.sims", "count", float64(win.runMisses)/n)
	r.set("core.compile_s", "s", spans["compile"]/n)
	r.set("core.compiles", "count", float64(win.compileMisses)/n)
	r.set("vliw.sim_ops", "count", float64(win.simOps)/n)
	if spans["job.simulate"] > 0 {
		r.set("vliw.sim_ops_per_s", "1/s", float64(win.simOps)/spans["job.simulate"])
	}
	r.set("experiments.run_misses", "count", float64(win.runMisses)/n)
	r.set("runner.simulate_busy_s", "s", spans["job.simulate"]/n)
	r.set("runner.compile_busy_s", "s", spans["job.compile"]/n)
	r.note("registry sim.runs %+d, sim.ops_issued %+d over %d computed runs", win.simRuns, win.simOps, win.runMisses)
	layers := (spans["store_lookup"] + spans["build"] + spans["store_write"]) / n
	r.set("residual_s", "s", ref.cpu/float64(max(len(ref.jobs), 1))-layers)
	// Compare like with like: the two windows draw their own mixes, so
	// weigh each class's latency change by the untraced window's share.
	nref := float64(max(len(ref.hitMS)+len(ref.computedMS), 1))
	r.set("trace_overhead_s", "s",
		(float64(len(ref.hitMS))*(mean(win.hitMS)-mean(ref.hitMS))+
			float64(len(ref.computedMS))*(mean(win.computedMS)-mean(ref.computedMS)))/nref/1e3)
	return r
}
