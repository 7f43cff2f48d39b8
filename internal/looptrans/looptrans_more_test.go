package looptrans

import (
	"bytes"
	"math/rand"
	"testing"

	"lpbuf/internal/interp"
	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
	"lpbuf/internal/profile"
)

// filterNest builds a 40x10 MAC nest (the shape of an LPC filter):
// too many absorbed ops for collapsing's cost model, but a perfect
// full-unroll candidate.
func filterNest() *ir.Program {
	pb := irbuild.NewProgram(32 << 10)
	coef := make([]int32, 10)
	for i := range coef {
		coef[i] = int32(i*7 - 30)
	}
	cOff := pb.GlobalW("coef", 10, coef)
	in := make([]int32, 50)
	for i := range in {
		in[i] = int32(i * 13 % 101)
	}
	inOff := pb.GlobalW("in", 50, in)
	outOff := pb.GlobalW("out", 40, nil)

	f := pb.Func("main", 0, false)
	f.Block("pre")
	cB := f.Const(cOff)
	inB := f.Const(inOff)
	outB := f.Const(outOff)
	n := f.Reg()
	f.MovI(n, 0)
	f.Block("outer")
	acc := f.Reg()
	k := f.Reg()
	pc := f.Reg()
	pv := f.Reg()
	f.MovI(acc, 0)
	f.MovI(k, 0)
	f.Mov(pc, cB)
	t := f.Reg()
	f.ShlI(t, n, 2)
	f.Add(pv, inB, t)
	f.Block("inner")
	cv := f.Reg()
	vv := f.Reg()
	m := f.Reg()
	f.LdW(cv, pc, 0)
	f.LdW(vv, pv, 0)
	f.Mul(m, cv, vv)
	f.Add(acc, acc, m)
	f.AddI(pc, pc, 4)
	f.AddI(pv, pv, 4)
	f.AddI(k, k, 1)
	f.BrI(ir.CmpLT, k, 10, "inner")
	f.Block("latch")
	po := f.Reg()
	t2 := f.Reg()
	f.ShlI(t2, n, 2)
	f.Add(po, outB, t2)
	f.StW(po, 0, acc)
	f.AddI(n, n, 1)
	f.BrI(ir.CmpLT, n, 40, "outer")
	f.Block("done")
	f.Ret(0)
	pb.SetEntry("main")
	return pb.MustBuild()
}

func TestUnrollFlattensFilterNest(t *testing.T) {
	want := mustRun(t, filterNest())

	p := filterNest()
	f := p.Funcs["main"]
	if n := UnrollAll(f, Options{}); n != 1 {
		t.Fatalf("unrolled %d loops, want 1", n)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
	loops := FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("%d loops after unroll, want 1 (flattened)", len(loops))
	}
	if !bytes.Equal(want, mustRun(t, p)) {
		t.Fatal("unroll changed behaviour")
	}
	// The flat body should now carry the ~10x expanded MAC chain.
	total := 0
	for id := range loops[0].Blocks {
		total += len(f.Block(id).Ops)
	}
	if total < 60 {
		t.Fatalf("flattened loop body has %d ops, expected the unrolled taps", total)
	}
}

func TestCollapseCostModelRejectsFilterNest(t *testing.T) {
	// The same nest absorbs too many outer ops per iteration: the
	// paper's "can the inner schedule accommodate it" check must reject
	// collapsing (full unrolling is the right transform here).
	p := filterNest()
	f := p.Funcs["main"]
	if n := CollapseAll(f, Options{}); n != 0 {
		t.Fatalf("collapsed %d loops, want 0 (cost model)", n)
	}
}

func TestCollapseAcceptsCheapNest(t *testing.T) {
	// The Figure 2 shape (3 absorbed ops) must still collapse.
	p := addBlockProgram()
	f := p.Funcs["main"]
	if n := CollapseAll(f, Options{}); n != 1 {
		t.Fatalf("collapsed %d loops, want 1", n)
	}
}

func TestUnrollRespectsTripLimit(t *testing.T) {
	p := filterNest()
	f := p.Funcs["main"]
	if n := UnrollAll(f, Options{MaxUnrollTrips: 8}); n != 0 {
		t.Fatalf("unrolled a 10-trip loop with MaxUnrollTrips=8")
	}
}

func TestUnrollRespectsOpBudget(t *testing.T) {
	p := filterNest()
	f := p.Funcs["main"]
	if n := UnrollAll(f, Options{MaxUnrollOps: 20}); n != 0 {
		t.Fatal("unrolled past the op budget")
	}
}

func TestUnrollSkipsTopLevelLoops(t *testing.T) {
	// A loop with no parent is never "flattened into" anything.
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	i := f.Reg()
	acc := f.Reg()
	f.MovI(i, 0)
	f.MovI(acc, 0)
	f.Block("loop")
	f.Add(acc, acc, i)
	f.AddI(i, i, 1)
	f.BrI(ir.CmpLT, i, 8, "loop")
	f.Block("done")
	f.Ret(acc)
	pb.SetEntry("main")
	p := pb.MustBuild()
	if n := UnrollAll(p.Funcs["main"], Options{}); n != 0 {
		t.Fatal("unrolled a top-level loop")
	}
}

func TestAvgTripsFromProfile(t *testing.T) {
	p := addBlockProgram()
	prof := profile.New()
	if _, err := interp.Run(p, interp.Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	prof.ApplyWeights(p)
	f := p.Funcs["main"]
	loops := FindLoops(f)
	inner := loops[0]
	got := AvgTripsFromProfile(prof.Funcs["main"], f, inner)
	if got < 7.9 || got > 8.1 {
		t.Fatalf("inner avg trips = %v, want ~8", got)
	}
	outer := loops[1]
	got = AvgTripsFromProfile(prof.Funcs["main"], f, outer)
	if got < 7.9 || got > 8.1 {
		t.Fatalf("outer avg trips = %v, want ~8", got)
	}
}

func TestMarkLoopBacks(t *testing.T) {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("pre")
	i := f.Reg()
	f.MovI(i, 0)
	f.Block("loop")
	f.AddI(i, i, 1)
	f.BrI(ir.CmpLT, i, 5, "loop")
	f.Block("done")
	f.Ret(i)
	pb.SetEntry("main")
	p := pb.MustBuild()
	fn := p.Funcs["main"]
	if n := MarkLoopBacks(fn); n != 1 {
		t.Fatalf("marked %d, want 1", n)
	}
	// Idempotent.
	if n := MarkLoopBacks(fn); n != 0 {
		t.Fatalf("re-marked %d", n)
	}
}

func TestDominators(t *testing.T) {
	p := addBlockProgram()
	f := p.Funcs["main"]
	dominates := Dominators(f)
	// The entry dominates everything.
	for _, b := range f.Blocks {
		if !dominates(f.Entry, b.ID) {
			t.Fatalf("entry does not dominate B%d", b.ID)
		}
		if !dominates(b.ID, b.ID) {
			t.Fatalf("B%d does not dominate itself", b.ID)
		}
	}
	// The inner loop's block is dominated by the outer header.
	loops := FindLoops(f)
	inner, outer := loops[0], loops[1]
	if !dominates(outer.Header, inner.Header) {
		t.Fatal("outer header should dominate the inner header")
	}
}

func TestCountedTripsEdgeCases(t *testing.T) {
	c := &Counted{Cmp: ir.CmpLT, BoundIsImm: true, BoundImm: 8,
		Init: 0, InitKnown: true, Step: 1}
	if trips, ok := c.Trips(); !ok || trips != 8 {
		t.Fatalf("trips = %d,%v", trips, ok)
	}
	// Bottom-tested loop with init beyond bound still runs once.
	c = &Counted{Cmp: ir.CmpLT, BoundIsImm: true, BoundImm: 0,
		Init: 5, InitKnown: true, Step: 1}
	if trips, ok := c.Trips(); !ok || trips != 1 {
		t.Fatalf("degenerate trips = %d,%v, want 1", trips, ok)
	}
	// LE bound includes the endpoint.
	c = &Counted{Cmp: ir.CmpLE, BoundIsImm: true, BoundImm: 8,
		Init: 0, InitKnown: true, Step: 2}
	if trips, ok := c.Trips(); !ok || trips != 5 {
		t.Fatalf("LE trips = %d,%v, want 5", trips, ok)
	}
	// Unknown init: no literal trips.
	c = &Counted{Cmp: ir.CmpLT, BoundIsImm: true, BoundImm: 8, Step: 1}
	if _, ok := c.Trips(); ok {
		t.Fatal("trips computed without a known init")
	}
}

// TestDominatorsMatchDefinition checks the dominance query on random
// CFGs against the definition: a dominates a reachable b iff b is a,
// or b is unreachable from the entry once a is removed.
func TestDominatorsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 300; iter++ {
		f := ir.NewFunc("g")
		nb := 1 + rng.Intn(12)
		for i := 0; i < nb; i++ {
			f.NewBlock()
		}
		f.Entry = f.Blocks[0].ID
		pick := func() ir.BlockID { return f.Blocks[rng.Intn(nb)].ID }
		for _, b := range f.Blocks {
			if rng.Intn(4) != 0 {
				b.Fall = pick()
			}
			for k := rng.Intn(3); k > 0; k-- {
				b.Ops = append(b.Ops, &ir.Op{Opcode: ir.OpBr, Target: pick()})
			}
		}
		// reach returns the blocks reachable from the entry avoiding
		// block skip (0 avoids nothing).
		reach := func(skip ir.BlockID) map[ir.BlockID]bool {
			seen := map[ir.BlockID]bool{}
			var walk func(id ir.BlockID)
			walk = func(id ir.BlockID) {
				if id == skip || seen[id] {
					return
				}
				seen[id] = true
				for _, s := range f.Block(id).Succs() {
					walk(s)
				}
			}
			walk(f.Entry)
			return seen
		}
		all := reach(0)
		dominates := Dominators(f)
		for _, a := range f.Blocks {
			without := reach(a.ID)
			for _, b := range f.Blocks {
				want := all[a.ID] && all[b.ID] && (a.ID == b.ID || !without[b.ID])
				if got := dominates(a.ID, b.ID); got != want {
					t.Fatalf("iter %d: dominates(B%d, B%d) = %v, want %v\n%s", iter, a.ID, b.ID, got, want, f)
				}
			}
		}
	}
}
