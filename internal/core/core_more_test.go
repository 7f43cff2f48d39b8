package core

import (
	"reflect"
	"testing"

	"lpbuf/internal/obs"
	"lpbuf/internal/vliw"
)

func TestAblationKnobs(t *testing.T) {
	prog := diamondLoopProgram()
	full, err := Compile(prog, Aggressive(256))
	if err != nil {
		t.Fatal(err)
	}
	noPred := Aggressive(256)
	noPred.Predication = false
	np, err := Compile(prog, noPred)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Converted == 0 || np.Stats.Converted != 0 {
		t.Fatalf("conversion counts: full=%d nopred=%d", full.Stats.Converted, np.Stats.Converted)
	}
	noProm := Aggressive(256)
	noProm.DisablePromote = true
	npr, err := Compile(prog, noProm)
	if err != nil {
		t.Fatal(err)
	}
	if npr.Stats.Promoted != 0 {
		t.Fatalf("promotion ran despite DisablePromote: %d", npr.Stats.Promoted)
	}
	// All variants stay semantically correct.
	for _, c := range []*Compiled{full, np, npr} {
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegisterPressureReported(t *testing.T) {
	prog := nestedLoopProgram()
	c, err := Compile(prog, Aggressive(256))
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.MaxLiveRegs <= 0 {
		t.Fatal("no register pressure reported")
	}
	// The benchmarks are written to fit the paper's 64-register machine.
	if c.Stats.MaxLiveRegs > c.Config.Machine.IntRegs {
		t.Fatalf("register pressure %d exceeds the machine's %d registers",
			c.Stats.MaxLiveRegs, c.Config.Machine.IntRegs)
	}
}

func TestTraditionalUsesModulo(t *testing.T) {
	// The paper modulo-schedules both configurations.
	prog := diamondLoopProgram()
	c, err := Compile(prog, Traditional(256))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Config.Modulo {
		t.Fatal("traditional config must enable modulo scheduling")
	}
}

func TestCompileRejectsBrokenEntry(t *testing.T) {
	prog := diamondLoopProgram()
	prog.Entry = "nosuch"
	if _, err := Compile(prog, Traditional(256)); err == nil {
		t.Fatal("expected error for missing entry")
	}
}

// TestRunSweepFoldRule pins when a simulation emits simulator ring
// events: one capacity traces, two or more fold. The per-capacity Stats
// are identical either way.
func TestRunSweepFoldRule(t *testing.T) {
	cfg := Aggressive(256)
	cfg.TraceLabel = "diamond"
	cfg.Obs = obs.New(obs.Config{Metrics: true, SimEvents: true})
	c, err := Compile(diamondLoopProgram(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	caps := []int{16, 256}
	var solo []vliw.Stats
	for _, capacity := range caps {
		before := cfg.Obs.Sim.Total()
		res, err := c.RunWithBuffer(capacity)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Obs.Sim.Total() == before {
			t.Fatalf("one-capacity run at %d emitted no simulator events", capacity)
		}
		solo = append(solo, res.Stats)
	}
	before := cfg.Obs.Sim.Total()
	sweep, err := c.RunSweep(caps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Obs.Sim.Total() - before; n != 0 {
		t.Fatalf("%d-capacity sweep emitted %d simulator events, want 0", len(caps), n)
	}
	for i, capacity := range caps {
		if !reflect.DeepEqual(sweep[i].Stats, solo[i]) {
			t.Errorf("@%d: sweep stats differ from the one-capacity run:\nsweep: %+v\nsolo:  %+v",
				capacity, sweep[i].Stats, solo[i])
		}
	}
	if got := cfg.Obs.Registry().Snapshot().Counters["sim.runs"]; got != 4 {
		t.Errorf("sim.runs = %d, want 4 (2 solo runs + a 2-capacity sweep)", got)
	}
}
