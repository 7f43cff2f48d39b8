// Package verify is the compiler's phase-checkpoint static analyzer:
// after every pipeline phase it re-derives the invariants the phase
// must have preserved and reports violations instead of letting a
// miscompile surface as a silently wrong figure.
//
// Four invariant classes are checked (see VERIFY.md):
//
//   - IR well-formedness on ir.Func/ir.Program: operand shapes and
//     register-class legality per opcode, register/predicate id ranges,
//     and a must-defined dataflow analysis proving every register and
//     guard predicate is defined on every path before it is used.
//   - Predicate well-formedness: Table 2 destination-type legality,
//     or/and-type contributions only to initialized predicates, and
//     (on scheduled code) slot-predication sensitivity-bit consistency
//     against the Section 4.2 binding model.
//   - Machine-resource legality on scheduled code: slot ranges, unit
//     assignment, one op per slot, branch-target resolution, section
//     op multiplicity (including software-pipelined prologue/kernel/
//     epilogue accounting), and EQ-model timing of straight sections
//     against a freshly rebuilt dependence DAG.
//   - Loop-buffer plan legality: loops fit the buffer, offsets are in
//     range, bundle ranges align with schedule sections, and counted
//     loops pair with br.cloop loop-backs.
//
// Checkpoints are enabled per compile via core.Config.Verify, globally
// via the lpbuf -verify flag, or for a whole test run by building with
// -tags verify (see Forced).
package verify

import (
	"fmt"
	"strings"
	"sync/atomic"

	"lpbuf/internal/ir"
)

// Violation is one invariant failure found at a checkpoint.
type Violation struct {
	// Phase names the checkpoint ("post-opt", "post-sched", ...).
	Phase string
	// Func is the containing function, when applicable.
	Func string
	// Block is the containing block, 0 when not block-scoped.
	Block ir.BlockID
	// OpID is the offending operation's ID, 0 when not op-scoped.
	OpID int
	// Rule is the short invariant name ("def-before-use", ...).
	Rule string
	// Msg explains the failure.
	Msg string
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s", v.Phase, v.Rule)
	if v.Func != "" {
		fmt.Fprintf(&b, " func=%s", v.Func)
	}
	if v.Block != 0 {
		fmt.Fprintf(&b, " B%d", v.Block)
	}
	if v.OpID != 0 {
		fmt.Fprintf(&b, " op=%d", v.OpID)
	}
	return b.String() + ": " + v.Msg
}

// Stats is a process-wide snapshot of checkpoint activity, reported by
// lpbuf -verify.
type Stats struct {
	Checkpoints int64
	Violations  int64
}

var (
	checkpoints atomic.Int64
	violations  atomic.Int64
)

// Snapshot returns the process-wide checkpoint counters.
func Snapshot() Stats {
	return Stats{Checkpoints: checkpoints.Load(), Violations: violations.Load()}
}

// note records one checkpoint's outcome in the global counters.
func note(vs []Violation) []Violation {
	checkpoints.Add(1)
	violations.Add(int64(len(vs)))
	return vs
}

// AsError folds violations into a single error (nil when clean). At
// most eight violations are listed; the total is always reported.
func AsError(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d invariant violation(s):", len(vs))
	for i, v := range vs {
		if i == 8 {
			fmt.Fprintf(&b, "\n  ... %d more", len(vs)-i)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// checker accumulates violations for one checkpoint.
type checker struct {
	phase string
	vs    []Violation
}

func (c *checker) add(fn string, blk ir.BlockID, op int, rule, format string, args ...any) {
	c.vs = append(c.vs, Violation{Phase: c.phase, Func: fn, Block: blk, OpID: op,
		Rule: rule, Msg: fmt.Sprintf(format, args...)})
}
