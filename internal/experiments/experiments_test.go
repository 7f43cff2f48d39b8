package experiments

import (
	"strings"
	"testing"
)

func TestRunAtVerifiesAndReports(t *testing.T) {
	s := New()
	r, err := s.RunAt("adpcmenc", "aggressive", 256)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.BufferIssueRatio() < 0.9 {
		t.Fatalf("adpcmenc aggressive ratio %.3f", r.Stats.BufferIssueRatio())
	}
	if r.StaticOps == 0 || r.Stats.Cycles == 0 {
		t.Fatal("missing stats")
	}
	// The compile is cached: a second run at another size is cheap and
	// still verified.
	r2, err := s.RunAt("adpcmenc", "aggressive", 16)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Stats.BufferIssueRatio() >= r.Stats.BufferIssueRatio() {
		t.Fatalf("16-op buffer (%.3f) should not beat 256-op (%.3f)",
			r2.Stats.BufferIssueRatio(), r.Stats.BufferIssueRatio())
	}
}

func TestRunAtUnknownBenchmark(t *testing.T) {
	s := New()
	if _, err := s.RunAt("nosuch", "aggressive", 256); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if _, err := s.RunAt("adpcmenc", "nosuch", 256); err == nil {
		t.Fatal("expected error for unknown config")
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles g724dec")
	}
	s := New()
	small, err := s.Figure5(16)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.Figure5(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Loops) == 0 {
		t.Fatal("no post-filter loops traced")
	}
	if small.TotalIssueFromBuffer >= big.TotalIssueFromBuffer {
		t.Fatalf("16-op total %.3f should be below 256-op %.3f",
			small.TotalIssueFromBuffer, big.TotalIssueFromBuffer)
	}
	// More loops fit at 256 than at 16.
	if len(small.Loops) > len(big.Loops) {
		t.Fatalf("loops: %d @16 vs %d @256", len(small.Loops), len(big.Loops))
	}
	out := RenderFig5(big)
	if !strings.Contains(out, "postfilter") {
		t.Fatal("render lacks loop labels")
	}
}

func TestFigure3Distributions(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the suite")
	}
	s := New()
	f3, err := s.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if f3.PredicatedLoops == 0 || f3.TotalLoops < f3.PredicatedLoops {
		t.Fatalf("loops: %d/%d", f3.PredicatedLoops, f3.TotalLoops)
	}
	// Paper claim: 8 standing predicates suffice for nearly all loops;
	// loops that exceed it need live-range splitting (here: the IDEA
	// multiplication loop). Assert the claim holds for the overwhelming
	// majority of dynamic loop iterations.
	var within8, total int64
	for m, w := range f3.Overlap {
		total += w
		if m <= 8 {
			within8 += w
		}
	}
	if total == 0 || float64(within8)/float64(total) < 0.95 {
		t.Fatalf("only %d/%d dynamic loop weight fits 8 predicates", within8, total)
	}
	if f3.OverflowLoops > 2 {
		t.Fatalf("%d loops exceed the slot model (expected at most the IDEA loops)",
			f3.OverflowLoops)
	}
	if f3.MaxLiveMax < 1 || f3.MaxLiveMax > 12 {
		t.Fatalf("max live predicates = %d", f3.MaxLiveMax)
	}
	if f3.SensitiveDynamic <= 0 || f3.SensitiveDynamic > f3.IssuedDynamic {
		t.Fatalf("sensitivity counts: %d/%d", f3.SensitiveDynamic, f3.IssuedDynamic)
	}
	out := RenderFig3(f3)
	if !strings.Contains(out, "consumers per define") {
		t.Fatal("render incomplete")
	}
}

func TestRenderers(t *testing.T) {
	rows := []Fig7Row{{Bench: "x", Ratios: map[int]float64{16: 0.5, 256: 0.9}}}
	out := RenderFig7("T", rows, []int{16, 256})
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, "90.0%") {
		t.Fatalf("fig7 render: %q", out)
	}
	out = RenderFig8a([]Fig8aRow{{Bench: "x", Speedup: 2, CodeSize: 1.5, TotalFetch: 1.2, MemFetch: 0.2}})
	if !strings.Contains(out, "2.00x") {
		t.Fatalf("fig8a render: %q", out)
	}
	out = RenderFig8b([]Fig8bRow{{Bench: "x", BaselineBuffered: 0.6, TransformedBuffered: 0.2}})
	if !strings.Contains(out, "0.600") {
		t.Fatalf("fig8b render: %q", out)
	}
	h := &Headline{BufferIssueTraditional: 0.4, BufferIssueAggressive: 0.9,
		AvgSpeedup: 1.8, FetchPowerBaseline: 0.6, FetchPowerTransformed: 0.3}
	out = RenderHeadline(h)
	if !strings.Contains(out, "1.80x") {
		t.Fatalf("headline render: %q", out)
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 11 {
		t.Fatalf("suite has %d benchmarks, want 11 (Table 1)", len(names))
	}
	want := map[string]bool{"adpcmenc": true, "adpcmdec": true, "g724enc": true,
		"g724dec": true, "jpegenc": true, "jpegdec": true, "mpeg2enc": true,
		"mpeg2dec": true, "mpg123": true, "pgpenc": true, "pgpdec": true}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected benchmark %q", n)
		}
	}
}

func TestAblationVariantsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles several variants")
	}
	s := New()
	rows, err := s.AblationBackend("adpcmenc", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AblationVariants) {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Variant != "full" {
		t.Fatal("first row must be the full pipeline")
	}
	// Disabling predication must hurt adpcm (its loop is branchy).
	var full, nopred AblationRow
	for _, r := range rows {
		switch r.Variant {
		case "full":
			full = r
		case "no-predication":
			nopred = r
		}
	}
	if nopred.Cycles <= full.Cycles {
		t.Fatalf("no-predication (%d) should be slower than full (%d)",
			nopred.Cycles, full.Cycles)
	}
	if nopred.BufferRatio >= full.BufferRatio {
		t.Fatal("no-predication should buffer less")
	}
	out := RenderAblation("adpcmenc", rows)
	if !strings.Contains(out, "no-predication") {
		t.Fatal("render incomplete")
	}
}

func TestWidthSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles three machines")
	}
	s := New()
	rows, err := s.WidthSweep("adpcmenc")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Narrower machines take at least as many cycles.
	if rows[0].Cycles < rows[2].Cycles {
		t.Fatalf("2-wide (%d) faster than 8-wide (%d)?", rows[0].Cycles, rows[2].Cycles)
	}
	// The buffer-issue fraction is roughly width-independent.
	if d := rows[0].BufferRatio - rows[2].BufferRatio; d > 0.2 || d < -0.2 {
		t.Fatalf("buffer ratio swings with width: %.3f vs %.3f",
			rows[0].BufferRatio, rows[2].BufferRatio)
	}
	out := RenderWidths("adpcmenc", rows)
	if !strings.Contains(out, "width") {
		t.Fatal("render incomplete")
	}
}

func TestEncodingCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the suite")
	}
	s := New()
	rows, err := s.EncodingCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Guarded > r.StaticOps || r.StaticOps == 0 {
			t.Fatalf("%s: guarded %d of %d", r.Bench, r.Guarded, r.StaticOps)
		}
		if r.FullBits != int64(r.StaticOps)*35 {
			t.Fatalf("%s: full bits %d", r.Bench, r.FullBits)
		}
	}
	out := RenderEncoding(rows)
	if !strings.Contains(out, "slot model") {
		t.Fatal("render incomplete")
	}
}

func TestDisasmShowsKernels(t *testing.T) {
	s := New()
	text, err := s.DisasmConfig("adpcmenc", "aggressive")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "kernel") || !strings.Contains(text, "II=") {
		t.Fatal("disassembly lacks kernel markers")
	}
	if !strings.Contains(text, "cmpp") {
		t.Fatal("disassembly lacks predicate defines")
	}
}

// TestReproductionContract is the repository's top-level regression
// guard: the headline shape of the paper must hold — a large gap
// between traditional and transformed buffer issue, a solid average
// speedup, and a large fetch-power reduction.
func TestReproductionContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite")
	}
	s := New()
	h, err := s.ComputeHeadline()
	if err != nil {
		t.Fatal(err)
	}
	if h.BufferIssueTraditional > 0.55 {
		t.Errorf("traditional buffer issue %.3f too high (paper: 0.387)", h.BufferIssueTraditional)
	}
	if h.BufferIssueAggressive < 0.80 {
		t.Errorf("transformed buffer issue %.3f too low (paper: 0.890)", h.BufferIssueAggressive)
	}
	if h.BufferIssueAggressive < h.BufferIssueTraditional+0.30 {
		t.Errorf("transformation gap too small: %.3f -> %.3f",
			h.BufferIssueTraditional, h.BufferIssueAggressive)
	}
	if h.AvgSpeedup < 1.4 {
		t.Errorf("average speedup %.2f too low (paper: 1.81)", h.AvgSpeedup)
	}
	if h.FetchPowerTransformed > 0.45 {
		t.Errorf("transformed fetch power %.3f too high (paper: 0.277)", h.FetchPowerTransformed)
	}
	if h.FetchPowerBaseline < h.FetchPowerTransformed {
		t.Error("baseline buffered power should exceed transformed")
	}
}
