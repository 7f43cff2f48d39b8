package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lpbuf/internal/obs"
)

// hitArtifact is the stub artifact the store-hit tests serve.
var hitArtifact = []byte("{\"schema\":\"lpbuf.artifact/v1\",\"stub\":true}\n")

// storeHitServer returns a started server whose stub build counts its
// calls, with spec already computed once so every further submit of it
// is a store hit.
func storeHitServer(t *testing.T, spec JobSpec) (*Server, *atomic.Int64) {
	t.Helper()
	s := testServer(t, Config{MaxJobs: 1})
	var builds atomic.Int64
	s.build = func(j *Job) ([]byte, error) {
		builds.Add(1)
		return hitArtifact, nil
	}
	if st := runToDone(t, s, spec); st.CacheHit {
		t.Fatal("first job claims a store hit on an empty store")
	}
	return s, &builds
}

// runToDone submits spec and waits for its terminal status, which must
// be done.
func runToDone(t *testing.T, s *Server, spec JobSpec) JobStatus {
	t.Helper()
	j, err := s.Submit(spec, "tester")
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	st := j.Status()
	if st.State != StateDone {
		t.Fatalf("job %s finished %s (%s)", st.ID, st.State, st.Error)
	}
	return st
}

// otherPauses counts the process's non-GC stop-the-world pauses so far
// (runtime.ReadMemStats is one).
func otherPauses() uint64 {
	sample := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(sample)
	var n uint64
	for _, c := range sample[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestStoreHitsDoNotStopTheWorld pins that per-job resource accounting
// reads its allocation counter without a stop-the-world: 100 store hits
// add no non-GC pause.
func TestStoreHitsDoNotStopTheWorld(t *testing.T) {
	spec := JobSpec{Figures: []string{"3"}}
	s, builds := storeHitServer(t, spec)
	before := otherPauses()
	for i := 0; i < 100; i++ {
		if st := runToDone(t, s, spec); !st.CacheHit {
			t.Fatalf("repeat %d was not a store hit", i)
		}
	}
	if d := otherPauses() - before; d != 0 {
		t.Fatalf("100 store hits stopped the world %d times outside GC, want 0", d)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1", n)
	}
}

// TestStoreHitRetainsLittleHeap pins the live heap a served store hit
// leaves behind (the server keeps every job): a job that never
// simulates must not hold a simulator event ring.
func TestStoreHitRetainsLittleHeap(t *testing.T) {
	const hits = 500
	const maxPerJob = 32 << 10
	spec := JobSpec{Figures: []string{"3"}}
	s, _ := storeHitServer(t, spec)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	for i := 0; i < hits; i++ {
		if st := runToDone(t, s, spec); !st.CacheHit {
			t.Fatalf("repeat %d was not a store hit", i)
		}
	}
	after := liveHeap()
	var perJob uint64
	if after > before {
		perJob = (after - before) / hits
	}
	t.Logf("each store hit retains %d bytes of live heap", perJob)
	if perJob > maxPerJob {
		t.Fatalf("each store hit retains %d bytes of live heap, want <= %d", perJob, maxPerJob)
	}
	if n := len(s.Jobs()); n != hits+1 {
		t.Fatalf("server holds %d jobs, want %d", n, hits+1)
	}
}

// TestComputedJobReportsAllocBytes pins that a computed job's resource
// accounting still sees the heap its build allocated.
func TestComputedJobReportsAllocBytes(t *testing.T) {
	const buildAlloc = 1 << 20
	s := testServer(t, Config{MaxJobs: 1})
	s.build = func(j *Job) ([]byte, error) {
		buf := make([]byte, buildAlloc)
		copy(buf, "{}")
		return buf, nil
	}
	st := runToDone(t, s, JobSpec{Figures: []string{"3"}})
	if st.Resources == nil || st.Resources.Provenance != "computed" {
		t.Fatalf("resources = %+v, want computed", st.Resources)
	}
	if got := st.Resources.AllocBytes; got < buildAlloc {
		t.Fatalf("alloc_bytes = %d, want >= %d (the build's own allocation)", got, buildAlloc)
	}
}

// TestJobTraceServesSimEvents pins that a job whose build emits
// simulator events serves them at /v1/jobs/{id}/trace.
func TestJobTraceServesSimEvents(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1})
	s.build = func(j *Job) ([]byte, error) {
		sim := j.scope.Sim()
		sim.Emit(obs.SimEvent{Cycle: 5, Kind: obs.SimLoopRecord, Run: "r", Func: "main", PC: 3, Loop: "main@3"})
		sim.EmitBatch([]obs.SimEvent{
			{Cycle: 6, Kind: obs.SimLoopReplay, Run: "r", Func: "main", PC: 3, Loop: "main@3"},
			{Cycle: 40, Kind: obs.SimLoopExit, Run: "r", Func: "main", PC: 9, Loop: "main@3", Arg: 5, Aux: 1},
		})
		return hitArtifact, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st := runToDone(t, s, JobSpec{Figures: []string{"3"}})
	resp, err := http.Get(ts.URL + st.TraceURL)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil {
		t.Fatalf("trace fetch: %s (%v)", resp.Status, err)
	}
	var file chromeTraceFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]string{}
	for _, e := range file.TraceEvents {
		seen[e.Name] = e.Ph
	}
	for name, ph := range map[string]string{"rec_loop": "i", "exec_loop": "i", "loop main@3": "X"} {
		if seen[name] != ph {
			t.Errorf("sim event %q: phase %q, want %q", name, seen[name], ph)
		}
	}
}

// TestEmptyStoreObjectIsReplaced covers the zero-length object a crash
// after an un-synced rename can leave: lookups treat it as a miss, so
// the first job computes, and its write must replace the empty file —
// otherwise the artifact endpoint serves an empty 200 and every repeat
// recomputes.
func TestEmptyStoreObjectIsReplaced(t *testing.T) {
	s := testServer(t, Config{MaxJobs: 1})
	var builds atomic.Int64
	s.build = func(j *Job) ([]byte, error) {
		builds.Add(1)
		return hitArtifact, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Figures: []string{"3"}}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	obj := filepath.Join(s.Store().Dir(), "objects", key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(obj), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(obj, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	st1 := runToDone(t, s, spec)
	if st1.CacheHit {
		t.Fatal("an empty object was served as a store hit")
	}
	art1, via1 := fetchArtifact(t, ts, st1.ID)
	if via1 != "computed" || !bytes.Equal(art1, hitArtifact) {
		t.Fatalf("first artifact via %q = %q, want computed %q", via1, art1, hitArtifact)
	}
	st2 := runToDone(t, s, spec)
	if !st2.CacheHit {
		t.Fatal("repeat after replacing the empty object was not a store hit")
	}
	art2, via2 := fetchArtifact(t, ts, st2.ID)
	if via2 != "store-hit" || !bytes.Equal(art2, hitArtifact) {
		t.Fatalf("repeat artifact via %q = %q, want store-hit %q", via2, art2, hitArtifact)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("builds = %d, want 1", n)
	}
	if err := s.Store().Check(); err != nil {
		t.Fatalf("store inconsistent: %v", err)
	}
}

// spinSink keeps the CPU-bound loops below from being optimized away.
var spinSink atomic.Uint64

// TestStoreHitsNotStarvedByCompute pins the spare scheduler processor
// beyond the compute pool: while CPU-bound goroutines fill every
// compute slot, as a novel job's simulations do, store hits over HTTP
// must not wait for preemption ticks. Without the spare processor most
// of them take 20 to 80 ms.
func TestStoreHitsNotStarvedByCompute(t *testing.T) {
	const hits = 50
	const slowAfter = 15 * time.Millisecond
	spec := JobSpec{Figures: []string{"3"}}
	s, _ := storeHitServer(t, spec)
	if p, n := runtime.GOMAXPROCS(0), cap(s.slots); p <= n {
		t.Fatalf("GOMAXPROCS %d leaves no processor beyond %d compute slots", p, n)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < cap(s.slots); i++ {
		s.slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-s.slots }()
			x := uint64(i + 1)
			for !stop.Load() {
				for k := 0; k < 1000; k++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			spinSink.Add(x)
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	var slow []time.Duration
	for i := 0; i < hits; i++ {
		t0 := time.Now()
		st, resp := submitHTTP(t, ts, spec, true)
		if resp.StatusCode != http.StatusOK || !st.CacheHit {
			t.Fatalf("repeat %d: %s, cache hit %v", i, resp.Status, st.CacheHit)
		}
		fetchArtifact(t, ts, st.ID)
		if d := time.Since(t0); d > slowAfter {
			slow = append(slow, d)
		}
	}
	if len(slow) > hits/10 {
		t.Fatalf("%d of %d store hits took over %v while compute filled every slot: %v",
			len(slow), hits, slowAfter, slow)
	}
}
