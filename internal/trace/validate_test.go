package trace

import (
	"strings"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/minilang"
)

const validateSrc = `
func main() {
    var x = 0;
    for (var i = 0; i < 3; i = i + 1) {
        x = f(x);
    }
    print(x);
}
func f(a) {
    if (a % 2 == 0) {
        return a + 1;
    }
    return a * 2;
}
`

func buildProg(t *testing.T) *cfg.Program {
	t.Helper()
	parsed, err := minilang.Parse(validateSrc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build(parsed, cfg.MaxBlocks)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// validWPP constructs a hand-made WPP consistent with validateSrc's
// CFGs by following them mechanically for a given f-argument parity.
func validWPP(t *testing.T, prog *cfg.Program) *RawWPP {
	t.Helper()
	b := NewBuilder([]string{"main", "f"})
	mg := prog.Graphs[0]
	fg := prog.Graphs[1]

	// Walk helper: follow blocks choosing the branch per the supplied
	// decision function; emit via builder.
	walk := func(g *cfg.Graph, decide func(blk *cfg.Block) *cfg.Block, onBlock func(*cfg.Block)) {
		blk := g.Entry
		for {
			b.Block(blk.ID)
			if onBlock != nil {
				onBlock(blk)
			}
			switch term := blk.Term.(type) {
			case *cfg.Goto:
				blk = term.Target
			case *cfg.CondJump:
				blk = decide(blk)
			case *cfg.Ret:
				b.Block(g.Exit.ID)
				return
			case nil:
				return
			}
		}
	}

	b.EnterCall(0)
	iter := 0
	val := 0
	mainDecide := func(blk *cfg.Block) *cfg.Block {
		term := blk.Term.(*cfg.CondJump)
		if iter < 3 {
			iter++
			return term.Then
		}
		return term.Else
	}
	// Manually interleave: main's loop body calls f. Simplest: emit
	// main's blocks with a callback that fires EnterCall when the body
	// block (the one containing the call statement) executes.
	walk(mg, mainDecide, func(blk *cfg.Block) {
		for _, s := range blk.Stmts {
			if strings.Contains(minilang.StmtString(s), "f(x)") {
				b.EnterCall(1)
				even := val%2 == 0
				walk(fg, func(fb *cfg.Block) *cfg.Block {
					term := fb.Term.(*cfg.CondJump)
					if even {
						return term.Then
					}
					return term.Else
				}, nil)
				b.ExitCall()
				if even {
					val = val + 1
				} else {
					val = val * 2
				}
			}
		}
	})
	b.ExitCall()
	return b.Finish()
}

func TestValidateAccepts(t *testing.T) {
	prog := buildProg(t)
	w := validWPP(t, prog)
	if err := Validate(w, prog); err != nil {
		t.Fatalf("valid WPP rejected: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	prog := buildProg(t)

	corrupt := func(name string, mutate func(w *RawWPP)) {
		w := validWPP(t, prog)
		mutate(w)
		if err := Validate(w, prog); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}

	// Row 0 is main, row 1 its first call.
	corrupt("unknown function", func(w *RawWPP) { w.DCG.Fn[0] = 99 })
	corrupt("bad entry", func(w *RawWPP) { w.Traces[w.DCG.Trace[0]][0] = 2 })
	corrupt("bad exit", func(w *RawWPP) {
		tr := w.Traces[w.DCG.Trace[0]]
		tr[len(tr)-1] = 1
	})
	corrupt("non-edge step", func(w *RawWPP) {
		tr := w.Traces[w.DCG.Trace[0]]
		tr[1] = tr[0] // self-step that is not a CFG edge
	})
	corrupt("unknown block", func(w *RawWPP) { w.Traces[w.DCG.Trace[0]][1] = 99 })
	corrupt("child position beyond trace", func(w *RawWPP) {
		w.DCG.Pos[1] = len(w.Traces[w.DCG.Trace[0]]) + 5
	})
	corrupt("child positions out of order", func(w *RawWPP) {
		if second := w.DCG.End[1]; second < w.DCG.End[0] {
			w.DCG.Pos[1], w.DCG.Pos[second] = w.DCG.Pos[second]+1, 0
		} else {
			w.DCG.Pos[1] = len(w.Traces[w.DCG.Trace[0]]) + 1
		}
	})
	corrupt("empty trace", func(w *RawWPP) { w.Traces[w.DCG.Trace[0]] = nil })
}

func TestValidateNoRoot(t *testing.T) {
	prog := buildProg(t)
	if err := Validate(&RawWPP{}, prog); err == nil {
		t.Error("rootless WPP accepted")
	}
}
