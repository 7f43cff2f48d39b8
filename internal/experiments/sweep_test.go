package experiments

import (
	"reflect"
	"testing"

	"lpbuf/internal/bench/suite"
	"lpbuf/internal/core"
	"lpbuf/internal/obs"
)

// TestSweepStatsMatchSolo is the suite-level half of the batch engine's
// bit-exactness contract: a batched, folded-stats sweep (RunSweepAt —
// what Figure 7 and SimStats now run) must report Stats identical to a
// solo full-event simulation of the same benchmark at the same
// capacity. The solo side compiles directly through core — bypassing
// the suite's run cache — so the comparison cannot be satisfied by a
// cache hit, and runs with an event-emitting Obs so folded mode is
// compared against the instrumented path, not against itself.
func TestSweepStatsMatchSolo(t *testing.T) {
	names := Benchmarks()
	if testing.Short() {
		names = names[:3]
	}
	sizes := []int{64, 256}
	s := New()
	for _, name := range names {
		runs, err := s.RunSweepAt(name, "aggressive", sizes)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := suite.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		cfg := core.Aggressive(256)
		cfg.Name = "aggressive"
		cfg.TraceLabel = name
		cfg.Obs = obs.New(obs.Config{Metrics: true, SimEvents: true})
		c, err := core.Compile(b.Build(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, sz := range sizes {
			res, err := c.RunWithBuffer(sz)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(runs[i].Stats, res.Stats) {
				t.Errorf("%s@%d: sweep stats differ from solo run:\nsweep: %+v\nsolo:  %+v",
					name, sz, runs[i].Stats, res.Stats)
			}
		}
	}
}

// TestSweepSharesRunCache pins the memoization contract between sweeps
// and point queries: a sweep populates the same cache RunAt reads, and
// an earlier RunAt's entry survives a later sweep pointer-stable.
func TestSweepSharesRunCache(t *testing.T) {
	s := New()
	r0, err := s.RunAt("adpcmenc", "aggressive", 256)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.RunSweepAt("adpcmenc", "aggressive", []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	if runs[1] != r0 {
		t.Error("sweep replaced an existing cached run instead of reusing it")
	}
	r1, err := s.RunAt("adpcmenc", "aggressive", 64)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != runs[0] {
		t.Error("RunAt did not serve the sweep-populated cache entry")
	}
	// One compile, and exactly one simulated batch + one solo run:
	// RunAt(256) missed, the sweep missed only at 64, RunAt(64) hit.
	snap := s.Metrics()
	if snap.RunMisses != 2 {
		t.Errorf("run misses = %d, want 2 (solo 256, sweep 64)", snap.RunMisses)
	}
}

// TestSharedCacheRunsReportToRequester checks that a simulation of a
// compile cached by another suite reports into the requesting suite's
// sinks: the second suite's registry counts sim.runs for its own RunAt
// and RunSweepAt, and the compiling suite's registry sees none of them.
func TestSharedCacheRunsReportToRequester(t *testing.T) {
	cache := NewCache()
	aObs := obs.New(obs.Config{Metrics: true})
	a := NewWithOptions(Options{Cache: cache, Obs: aObs})
	if _, err := a.RunAt("adpcmenc", "aggressive", 256); err != nil {
		t.Fatal(err)
	}
	bObs := obs.New(obs.Config{Metrics: true})
	b := NewWithOptions(Options{Cache: cache, Obs: bObs})
	if _, err := b.RunAt("adpcmenc", "aggressive", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunSweepAt("adpcmenc", "aggressive", []int{16, 32}); err != nil {
		t.Fatal(err)
	}
	if m := b.Metrics(); m.CacheMisses != 0 || m.RunMisses != 3 {
		t.Fatalf("second suite: %d compiles, %d run misses; want 0 and 3", m.CacheMisses, m.RunMisses)
	}
	if got := bObs.Registry().Snapshot().Counters["sim.runs"]; got != 3 {
		t.Errorf("second suite counted sim.runs = %d, want 3", got)
	}
	if got := aObs.Registry().Snapshot().Counters["sim.runs"]; got != 1 {
		t.Errorf("compiling suite counted sim.runs = %d, want its own 1", got)
	}
}
