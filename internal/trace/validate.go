package trace

import (
	"fmt"

	"twpp/internal/cfg"
)

// Validate checks a raw WPP against the program's control flow graphs:
// every path trace must start at its function's entry block, end at
// its exit block, and step only along CFG edges; every referenced
// function must exist. This is the integrity check a consumer should
// run on traces produced elsewhere before feeding them to the
// compactor or the analyses.
func Validate(w *RawWPP, prog *cfg.Program) error {
	d := &w.DCG
	if d.Len() == 0 {
		return fmt.Errorf("trace: WPP has no root call")
	}
	// The open calls in preorder: each one's row, how many of its
	// children have been checked, and the last one's position.
	type open struct{ row, kids, prev int }
	var stack []open
	for i := 0; i < d.Len(); i++ {
		for len(stack) > 0 && d.End[stack[len(stack)-1].row] <= i {
			stack = stack[:len(stack)-1]
		}
		// Child call positions must be within the caller's trace.
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			tr := w.Traces[d.Trace[p.row]]
			if pos := d.Pos[i]; pos < p.prev || pos > len(tr) {
				return fmt.Errorf("trace: %s: child %d at position %d (trace length %d, previous %d)",
					w.FuncName(d.Fn[p.row]), p.kids, pos, len(tr), p.prev)
			}
			p.prev = d.Pos[i]
			p.kids++
		}
		if err := validateCall(w, prog, d.Fn[i], d.Trace[i]); err != nil {
			return err
		}
		stack = append(stack, open{row: i})
	}
	return nil
}

// validateCall checks one call of fn that executed trace ti.
func validateCall(w *RawWPP, prog *cfg.Program, fn cfg.FuncID, ti int) error {
	g := prog.Graph(fn)
	if g == nil {
		return fmt.Errorf("trace: call to unknown function id %d", fn)
	}
	if ti < 0 || ti >= len(w.Traces) {
		return fmt.Errorf("trace: %s: trace index %d out of range", w.FuncName(fn), ti)
	}
	tr := w.Traces[ti]
	if len(tr) == 0 {
		return fmt.Errorf("trace: %s: empty path trace", w.FuncName(fn))
	}
	if tr[0] != g.Entry.ID {
		return fmt.Errorf("trace: %s: trace starts at B%d, entry is B%d", w.FuncName(fn), tr[0], g.Entry.ID)
	}
	if tr[len(tr)-1] != g.Exit.ID {
		return fmt.Errorf("trace: %s: trace ends at B%d, exit is B%d", w.FuncName(fn), tr[len(tr)-1], g.Exit.ID)
	}
	for i := 0; i+1 < len(tr); i++ {
		from := g.Block(tr[i])
		if from == nil {
			return fmt.Errorf("trace: %s: unknown block B%d", w.FuncName(fn), tr[i])
		}
		ok := false
		for _, s := range from.Succs {
			if s.ID == tr[i+1] {
				ok = true
				break
			}
		}
		// The return transfer to the exit block is not a regular
		// CFG edge from arbitrary blocks; it is taken via a Ret
		// terminator.
		if !ok {
			if _, isRet := from.Term.(*cfg.Ret); isRet && tr[i+1] == g.Exit.ID {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("trace: %s: B%d -> B%d is not a CFG edge", w.FuncName(fn), tr[i], tr[i+1])
		}
	}
	return nil
}
