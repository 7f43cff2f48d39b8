package experiments

import (
	"strings"
	"testing"
)

// TestShootoutAcceptance pins the scheduler shoot-out's acceptance
// bars over all 11 benchmarks: the exact backend must never schedule a
// kernel at a larger II than the heuristic, must prove minimality
// in-budget for at least 90% of the kernels it pipelines, and both
// backends' simulations must have been bit-exact (RunAt fails
// otherwise, so reaching the assertions implies it). The search's work
// is pinned as data too: the node budget is deterministic, so each
// benchmark's node count and the proven/fallback split are facts of
// the compile that a faster search must not move.
func TestShootoutAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the suite twice")
	}
	s := New()
	rows, err := s.Shootout()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Benchmarks()) {
		t.Fatalf("%d rows, want %d", len(rows), len(Benchmarks()))
	}
	kernels, proven, fallbacks := 0, 0, 0
	for _, r := range rows {
		wantNodes := int64(0)
		if r.Bench == "g724enc" || r.Bench == "g724dec" {
			wantNodes = 5001
		}
		if r.SearchNodes != wantNodes {
			t.Errorf("%s: %d search nodes, want %d", r.Bench, r.SearchNodes, wantNodes)
		}
		if r.OptSumII > r.HeurSumII {
			t.Errorf("%s: optimal total II %d exceeds heuristic %d",
				r.Bench, r.OptSumII, r.HeurSumII)
		}
		if r.Kernels == 0 {
			t.Errorf("%s: no pipelined kernels under the exact backend", r.Bench)
		}
		if r.OptCycles <= 0 || r.HeurCycles <= 0 {
			t.Errorf("%s: missing cycle counts", r.Bench)
		}
		kernels += r.Kernels
		proven += r.Proven
		fallbacks += r.Fallbacks
	}
	if proven != 55 || fallbacks != 2 {
		t.Errorf("%d proven, %d fallbacks; want 55, 2", proven, fallbacks)
	}
	if kernels == 0 {
		t.Fatal("no kernels across the suite")
	}
	if proven*10 < kernels*9 {
		t.Errorf("minimality proven for %d/%d kernels, below the 90%% bar", proven, kernels)
	}
	out := RenderShootout(rows)
	if !strings.Contains(out, "proven minimal") || !strings.Contains(out, "adpcmenc") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

// TestRenderShootout exercises the renderer on synthetic rows.
func TestRenderShootout(t *testing.T) {
	rows := []ShootoutRow{{
		Bench: "x", Kernels: 3, Compared: 3, Proven: 2, Fallbacks: 1,
		Improved: 1, HeurSumII: 12, OptSumII: 10,
		HeurBufferPct: 90, OptBufferPct: 92,
		HeurCycles: 1000, OptCycles: 900,
	}}
	out := RenderShootout(rows)
	for _, want := range []string{"x", "II gap", "3 kernels", "2 proven minimal", "1 budget fallbacks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
}
