package optimal

import (
	"math/rand"
	"slices"
	"testing"
)

// scratchFeasible is the from-zero Bellman–Ford that bfFeasible's warm
// start must agree with: it returns the least fixpoint of the stage
// system under the current domains, or false on a positive cycle.
func scratchFeasible(sv *solver) ([]int, bool) {
	s := make([]int, sv.n)
	for pass := 0; pass <= sv.n; pass++ {
		changed := false
		for _, e := range sv.edges {
			if w := sv.wmin(e); s[e.to] < s[e.from]+w {
				s[e.to] = s[e.from] + w
				changed = true
			}
		}
		if !changed {
			return s, true
		}
	}
	return nil, false
}

// TestWarmStartMatchesScratch drives random domain-narrowing sequences
// over random small edge sets, the way the search does: each step
// narrows one domain or fixes one row, and an infeasible step is
// undone together with the potentials. At every step the warm-started
// bfFeasible must reach the same verdict, and the same fixpoint, as a
// from-scratch Bellman–Ford.
func TestWarmStartMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var feasible, infeasible int
	for iter := 0; iter < 2000; iter++ {
		n := 2 + rng.Intn(6)
		ii := 1 + rng.Intn(8)
		sv := &solver{ii: ii, n: n, dom: make([]uint64, n), row: make([]int, n), bf: make([]int, n)}
		for k := rng.Intn(3 * n); k >= 0; k-- {
			from, to := rng.Intn(n), rng.Intn(n)
			if from != to {
				sv.edges = append(sv.edges, edge{from: from, to: to, w: rng.Intn(4*ii+1) - 2*ii})
			}
		}
		sv.ew = make([]int, len(sv.edges))
		for i := range sv.dom {
			sv.dom[i] = uint64(1)<<uint(ii) - 1
			sv.row[i] = -1
		}
		if !sv.bfFeasible() {
			continue
		}
		for step := 0; step < 4*n; step++ {
			i := rng.Intn(n)
			if sv.row[i] >= 0 {
				continue
			}
			domSave, bfSave, rowSave := slices.Clone(sv.dom), slices.Clone(sv.bf), sv.row[i]
			if narrowed := sv.dom[i] & rng.Uint64(); rng.Intn(2) == 0 && narrowed != 0 {
				sv.dom[i] = narrowed
			} else {
				r := minBit(sv.dom[i])
				for b := sv.dom[i]; b != 0; b &= b - 1 {
					if rng.Intn(2) == 0 {
						r = minBit(b)
					}
				}
				sv.row[i], sv.dom[i] = r, 1<<uint(r)
			}
			want, wantOK := scratchFeasible(sv)
			got := sv.bfFeasible()
			if got != wantOK {
				t.Fatalf("iter %d step %d: warm-started bfFeasible = %v, from scratch %v", iter, step, got, wantOK)
			}
			if !got {
				infeasible++
				copy(sv.dom, domSave)
				copy(sv.bf, bfSave)
				sv.row[i] = rowSave
				continue
			}
			feasible++
			if !slices.Equal(sv.bf, want) {
				t.Fatalf("iter %d step %d: warm fixpoint %v, from scratch %v", iter, step, sv.bf, want)
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("sequences never exercised both verdicts: %d feasible, %d infeasible steps", feasible, infeasible)
	}
}
