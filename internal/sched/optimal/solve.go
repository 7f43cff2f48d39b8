package optimal

import (
	"math/bits"
	"sort"
	"time"

	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
	"lpbuf/internal/sched"
)

// depFeasible decides whether the dependence system alone admits a
// schedule at the given II: the constraints sigma(to) >= sigma(from) +
// lat - II*dist form a difference system over flat times, feasible iff
// the edge graph with weights lat - II*dist has no positive cycle
// (Bellman-Ford longest paths). This is exact — no row/stage
// decomposition needed — so scanning II upward until it holds yields
// the true recurrence-constrained MII, not the 2-cycle estimate.
func depFeasible(d *sched.DAG, ii, n int) bool {
	s := make([]int, n)
	for pass := 0; pass <= n; pass++ {
		changed := false
		for i := range d.Ops {
			for _, e := range d.Succs[i] {
				w := e.Lat - ii*e.Dist
				if s[e.To] < s[i]+w {
					s[e.To] = s[i] + w
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

type status int

const (
	// statusSolved: a schedule at this II was found.
	statusSolved status = iota
	// statusInfeasible: the search space was exhausted — no schedule
	// exists at this II (a sound proof; see package comment).
	statusInfeasible
	// statusExhausted: the node budget or deadline died first; nothing
	// is known about this II.
	statusExhausted
)

type iiResult struct {
	status status
	ks     *sched.KernelSchedule
	nodes  int64
}

// edge is a dependence constraint with precomputed stage weight base
// w = lat - II*dist: the stage system requires
// stage(to) - stage(from) >= ceil((w - row(to) + row(from)) / II).
type edge struct {
	from, to int
	w        int
}

// solver holds the per-II search state. All state is local to one
// solveII call; the Scheduler shares nothing mutable across loops.
type solver struct {
	d  *sched.DAG
	m  *machine.Desc
	ii int
	n  int

	cls   []machine.UnitClass
	edges []edge
	// twoCyc[i] lists (j, wij, wji) pairs where edges i->j and j->i
	// both exist: the only cycles whose weight two row choices fix
	// directly, used for pairwise domain filtering.
	twoCyc [][]pairCycle

	branchSlot int
	// slotsFor caches m.SlotsFor per class; branch row (II-1) uses a
	// filtered copy excluding branchSlot.
	lastRow int

	dom  []uint64 // candidate-row bitsets, one per op
	row  []int    // assigned row, -1 = unassigned
	rows [][]int  // op indices assigned to each row

	budget   *int64
	deadline time.Time
	nodes    int64
	dead     bool // budget or deadline exhausted

	// bf holds the stage potentials of the last feasible bfFeasible
	// call: the least fixpoint of the current node, which warm-starts
	// the next call down the search path.
	bf []int
	ew []int // per-edge minimized weights, bfFeasible scratch
	// domStack and bfStack hold each search depth's domains and
	// potentials (n entries per depth), restored on backtrack.
	domStack []uint64
	bfStack  []int
	matchOp  []int // matching scratch: slot -> op
	visited  []bool
}

type pairCycle struct {
	j        int
	wij, wji int
}

// ceilDiv returns ceil(a/b) for b > 0 (Go's / truncates toward zero,
// which already equals ceil for a <= 0).
func ceilDiv(a, b int) int {
	if a > 0 {
		return (a + b - 1) / b
	}
	return a / b
}

func minBit(m uint64) int {
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(m)
}

func maxBit(m uint64) int { return 63 - bits.LeadingZeros64(m) }

// solveII searches for a kernel schedule at exactly the given II.
func solveII(d *sched.DAG, m *machine.Desc, ii int, budget *int64, deadline time.Time) iiResult {
	n := len(d.Ops)
	sv := &solver{
		d: d, m: m, ii: ii, n: n,
		cls:        make([]machine.UnitClass, n),
		branchSlot: branchSlotOf(m),
		lastRow:    ii - 1,
		dom:        make([]uint64, n),
		row:        make([]int, n),
		rows:       make([][]int, ii),
		budget:     budget,
		deadline:   deadline,
		bf:         make([]int, n),
		domStack:   make([]uint64, n*n),
		bfStack:    make([]int, n*n),
		matchOp:    make([]int, m.Width()),
		visited:    make([]bool, m.Width()),
	}
	for i, op := range d.Ops {
		sv.cls[i] = ir.UnitFor(op)
		sv.row[i] = -1
	}

	// Deterministic edge list (DAG adjacency comes from a map).
	for i := range d.Ops {
		for _, e := range d.Succs[i] {
			sv.edges = append(sv.edges, edge{from: i, to: e.To, w: e.Lat - ii*e.Dist})
		}
	}
	sort.Slice(sv.edges, func(a, b int) bool {
		ea, eb := sv.edges[a], sv.edges[b]
		if ea.from != eb.from {
			return ea.from < eb.from
		}
		if ea.to != eb.to {
			return ea.to < eb.to
		}
		return ea.w > eb.w
	})
	// Self edges constrain no rows — they are pure cycles: feasible iff
	// ceil(w/ii) <= 0.
	kept := sv.edges[:0]
	for _, e := range sv.edges {
		if e.from == e.to {
			if ceilDiv(e.w, ii) > 0 {
				return iiResult{status: statusInfeasible}
			}
			continue
		}
		kept = append(kept, e)
	}
	sv.edges = kept
	sv.ew = make([]int, len(kept))

	// Index 2-cycles for pairwise filtering.
	sv.twoCyc = make([][]pairCycle, n)
	type ekey struct{ f, t int }
	wmax := map[ekey]int{}
	for _, e := range sv.edges {
		k := ekey{e.from, e.to}
		if w, ok := wmax[k]; !ok || e.w > w {
			wmax[k] = e.w
		}
	}
	for _, e := range sv.edges {
		if back, ok := wmax[ekey{e.to, e.from}]; ok && e.from < e.to {
			sv.twoCyc[e.from] = append(sv.twoCyc[e.from], pairCycle{j: e.to, wij: e.w, wji: back})
			sv.twoCyc[e.to] = append(sv.twoCyc[e.to], pairCycle{j: e.from, wij: back, wji: e.w})
		}
	}

	// Initial domains: every row; resource-filter each singleton row
	// (an op whose class has no slot in a row can't go there — only the
	// branch row differs, having branchSlot pre-reserved).
	full := uint64(1)<<uint(ii) - 1
	if ii == 64 {
		full = ^uint64(0)
	}
	for i := 0; i < n; i++ {
		sv.dom[i] = full
		for r := 0; r < ii; r++ {
			if !sv.rowFeasibleWith(r, i) {
				sv.dom[i] &^= 1 << uint(r)
			}
		}
		if sv.dom[i] == 0 {
			return iiResult{status: statusInfeasible}
		}
	}
	if !sv.bfFeasible() {
		return iiResult{status: statusInfeasible}
	}

	found := sv.search(0)
	res := iiResult{nodes: sv.nodes}
	switch {
	case found:
		ks := sv.extract()
		if ks == nil {
			// Defensive: extraction re-checks every constraint; a failure
			// here would be a solver bug — treat as unproven, not as a
			// false infeasibility proof.
			res.status = statusExhausted
			return res
		}
		res.status = statusSolved
		res.ks = ks
	case sv.dead:
		res.status = statusExhausted
	default:
		res.status = statusInfeasible
	}
	return res
}

func branchSlotOf(m *machine.Desc) int {
	brSlots := m.SlotsFor(machine.UnitBranch)
	return brSlots[len(brSlots)-1]
}

// search runs the propagate-and-branch loop at the given depth (the
// number of ops assigned so far). Returns true when a full row
// assignment satisfying all constraints was reached.
func (sv *solver) search(depth int) bool {
	// Fail-first variable order: smallest domain, then greatest height,
	// then lowest index.
	op := -1
	best := 65
	for i := 0; i < sv.n; i++ {
		if sv.row[i] >= 0 {
			continue
		}
		c := bits.OnesCount64(sv.dom[i])
		if c < best || (c == best && sv.d.Height[i] > sv.d.Height[op]) {
			op, best = i, c
		}
	}
	if op < 0 {
		return true // all rows assigned; bfFeasible held after the last one
	}

	domSave := sv.domStack[depth*sv.n : (depth+1)*sv.n]
	bfSave := sv.bfStack[depth*sv.n : (depth+1)*sv.n]
	copy(domSave, sv.dom)
	copy(bfSave, sv.bf)
	for r := 0; r < sv.ii; r++ {
		if sv.dom[op]&(1<<uint(r)) == 0 {
			continue
		}
		sv.nodes++
		if *sv.budget--; *sv.budget < 0 {
			sv.dead = true
			return false
		}
		if sv.nodes&1023 == 0 && !sv.deadline.IsZero() && time.Now().After(sv.deadline) {
			sv.dead = true
			return false
		}

		sv.row[op] = r
		sv.dom[op] = 1 << uint(r)
		sv.rows[r] = append(sv.rows[r], op)
		if sv.propagate(op, r) && sv.search(depth+1) {
			return true
		}
		sv.rows[r] = sv.rows[r][:len(sv.rows[r])-1]
		sv.row[op] = -1
		copy(sv.dom, domSave)
		copy(sv.bf, bfSave)
		if sv.dead {
			return false
		}
	}
	return false
}

// propagate filters domains after assigning op to row r and checks
// global feasibility. Filtering is sound (removes only rows that admit
// no completion); completeness comes from the search itself.
func (sv *solver) propagate(op, r int) bool {
	// Resource filtering: only row r gained an occupant, so only the
	// r-bit of unassigned domains can change.
	for i := 0; i < sv.n; i++ {
		if sv.row[i] >= 0 || sv.dom[i]&(1<<uint(r)) == 0 {
			continue
		}
		if !sv.rowFeasibleWith(r, i) {
			sv.dom[i] &^= 1 << uint(r)
			if sv.dom[i] == 0 {
				return false
			}
		}
	}
	// Pairwise 2-cycle filtering against the newly fixed row.
	for _, pc := range sv.twoCyc[op] {
		j := pc.j
		if sv.row[j] >= 0 {
			continue
		}
		for rj := 0; rj < sv.ii; rj++ {
			if sv.dom[j]&(1<<uint(rj)) == 0 {
				continue
			}
			if ceilDiv(pc.wij+r-rj, sv.ii)+ceilDiv(pc.wji+rj-r, sv.ii) > 0 {
				sv.dom[j] &^= 1 << uint(rj)
			}
		}
		if sv.dom[j] == 0 {
			return false
		}
	}
	return sv.bfFeasible()
}

// wmin lower-bounds an edge's stage weight over the current domains:
// ceil is monotone in row(from) and antitone in row(to), so the
// minimum uses the smallest candidate source row and largest candidate
// sink row.
func (sv *solver) wmin(e edge) int {
	rf := sv.row[e.from]
	if rf < 0 {
		rf = minBit(sv.dom[e.from])
	}
	rt := sv.row[e.to]
	if rt < 0 {
		rt = maxBit(sv.dom[e.to])
	}
	return ceilDiv(e.w+rf-rt, sv.ii)
}

// bfFeasible decides whether the stage difference system with
// minimized weights admits a solution: Bellman-Ford longest paths from
// an implicit all-zeros source; a relaxation still firing after n full
// passes proves a positive-weight cycle, i.e. infeasibility. With all
// rows assigned the weights are exact and this is a complete decision
// procedure for the II.
//
// The passes start from sv.bf, the parent node's fixpoint, not from
// zero. Domains only shrink down a search path, so every minimized
// weight only rises and the parent's fixpoint lower-bounds this node's
// least one: when a fixpoint exists the relaxation reaches that same
// least fixpoint within n passes, usually in far fewer, and when none
// exists it never settles, so the positive-cycle test keeps its exact
// meaning.
func (sv *solver) bfFeasible() bool {
	for k, e := range sv.edges {
		sv.ew[k] = sv.wmin(e)
	}
	s := sv.bf
	for pass := 0; pass <= sv.n; pass++ {
		changed := false
		for k, e := range sv.edges {
			if v := s[e.from] + sv.ew[k]; s[e.to] < v {
				s[e.to] = v
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// rowFeasibleWith reports whether row r can host its current occupants
// plus op extra: a perfect matching of ops onto distinct slots
// providing their unit classes must exist (the branch row additionally
// loses branchSlot to the loop-back branch). Using exact matching
// instead of greedy commitment means the search never has to branch
// over slots.
func (sv *solver) rowFeasibleWith(r, extra int) bool {
	for i := range sv.matchOp {
		sv.matchOp[i] = -1
	}
	if r == sv.lastRow {
		sv.matchOp[sv.branchSlot] = 1 << 30
	}
	for _, o := range sv.rows[r] {
		if !sv.augment(o) {
			return false
		}
	}
	return extra < 0 || sv.augment(extra)
}

// augment finds an augmenting path (Kuhn's algorithm) placing op o.
func (sv *solver) augment(o int) bool {
	for i := range sv.visited {
		sv.visited[i] = false
	}
	return sv.tryPlace(o)
}

func (sv *solver) tryPlace(o int) bool {
	for _, s := range sv.m.SlotsFor(sv.cls[o]) {
		if sv.visited[s] || sv.matchOp[s] == 1<<30 {
			continue
		}
		sv.visited[s] = true
		if sv.matchOp[s] == -1 || sv.tryPlace(sv.matchOp[s]) {
			sv.matchOp[s] = o
			return true
		}
	}
	return false
}

// extract materializes the found assignment into a KernelSchedule:
// exact Bellman-Ford resolves minimal stages, and a final matching per
// row fixes slots. Every dependence constraint is re-checked; nil on
// violation (which would indicate a solver bug, never an unsound
// schedule escaping).
func (sv *solver) extract() *sched.KernelSchedule {
	ii, n := sv.ii, sv.n
	s := sv.bf
	for i := range s {
		s[i] = 0
	}
	ok := false
	for pass := 0; pass <= n; pass++ {
		changed := false
		for _, e := range sv.edges {
			w := ceilDiv(e.w+sv.row[e.from]-sv.row[e.to], ii)
			if s[e.to] < s[e.from]+w {
				s[e.to] = s[e.from] + w
				changed = true
			}
		}
		if !changed {
			ok = true
			break
		}
	}
	if !ok {
		return nil
	}
	minS := 0
	for _, v := range s {
		if v < minS {
			minS = v
		}
	}
	sigma := make([]int, n)
	maxSig := 0
	for i := range sigma {
		sigma[i] = ii*(s[i]-minS) + sv.row[i]
		if sigma[i] > maxSig {
			maxSig = sigma[i]
		}
	}
	// Re-check the exact dependence constraints from the original DAG.
	for i := range sv.d.Ops {
		for _, e := range sv.d.Succs[i] {
			if sigma[e.To]+ii*e.Dist < sigma[i]+e.Lat {
				return nil
			}
		}
	}

	// Slot assignment: one exact matching per row, deterministic.
	slot := make([]int, n)
	for i := range slot {
		slot[i] = -1
	}
	for r := 0; r < ii; r++ {
		if !sv.rowFeasibleWith(r, -1) {
			return nil
		}
		for sl, o := range sv.matchOp {
			if o >= 0 && o < n {
				slot[o] = sl
			}
		}
	}
	for i := range slot {
		if slot[i] < 0 {
			return nil
		}
	}
	return &sched.KernelSchedule{
		II:         ii,
		Stages:     maxSig/ii + 1,
		Sigma:      sigma,
		Slot:       slot,
		BranchSlot: sv.branchSlot,
	}
}
