package sequitur

import (
	"fmt"

	"twpp/internal/encoding"
)

// Size reports the total number of symbols on the right-hand sides of
// all live rules — the standard measure of grammar size.
func (g *Grammar) Size() int {
	n := 0
	for _, r := range g.rules {
		if r == nil {
			continue
		}
		for s := r.first(); !s.guard; s = s.next {
			n++
		}
	}
	return n
}

// Expand regenerates the original terminal sequence from the grammar.
func (g *Grammar) Expand() []uint32 {
	out := make([]uint32, 0, g.length)
	g.ExpandFunc(func(v uint32) { out = append(out, v) })
	return out
}

// ExpandFunc streams the original terminal sequence to fn without
// materializing it. Expansion is iterative (explicit stack), so deeply
// nested grammars cannot overflow the goroutine stack.
func (g *Grammar) ExpandFunc(fn func(uint32)) {
	type frame struct{ s *symbol }
	stack := []frame{{g.rules[0].first()}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		s := top.s
		if s.guard {
			stack = stack[:len(stack)-1]
			continue
		}
		top.s = s.next
		if s.isNonterminal() {
			stack = append(stack, frame{s.rule.first()})
		} else {
			fn(s.value)
		}
	}
}

// grammarMagic identifies a serialized grammar stream.
const grammarMagic = 0x53455131 // "SEQ1"

// Encode serializes the grammar to a compact byte stream: rule count,
// then per rule (dense re-numbered ids) the body length and symbols as
// varints. Nonterminal references are encoded as odd values and
// terminals as even values so both stay small.
func (g *Grammar) Encode() []byte {
	// Dense renumbering: live rules only.
	renum := make(map[uint32]uint64, g.NumRules())
	order := make([]*rule, 0, g.NumRules())
	for _, r := range g.rules {
		if r != nil {
			renum[r.id] = uint64(len(order))
			order = append(order, r)
		}
	}
	buf := encoding.PutUint32(nil, grammarMagic)
	buf = encoding.PutUvarint(buf, uint64(len(order)))
	for _, r := range order {
		var body []*symbol
		for s := r.first(); !s.guard; s = s.next {
			body = append(body, s)
		}
		buf = encoding.PutUvarint(buf, uint64(len(body)))
		for _, s := range body {
			if s.isNonterminal() {
				buf = encoding.PutUvarint(buf, renum[s.rule.id]<<1|1)
			} else {
				buf = encoding.PutUvarint(buf, uint64(s.value)<<1)
			}
		}
	}
	return buf
}

// Decoded is a parsed serialized grammar, sufficient for expansion
// without rebuilding Sequitur's incremental state.
type Decoded struct {
	// Bodies[i] is the body of rule i; values < RuleBase are terminals,
	// values >= RuleBase reference rule (value - RuleBase). Rule 0 is
	// the start rule.
	Bodies [][]uint32
}

// Decode parses a stream produced by Encode.
func Decode(data []byte) (*Decoded, error) {
	c := encoding.NewCursor(data)
	magic, err := c.Uint32()
	if err != nil {
		return nil, err
	}
	if magic != grammarMagic {
		return nil, fmt.Errorf("sequitur: bad magic %#x", magic)
	}
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	d := &Decoded{Bodies: make([][]uint32, n)}
	for i := range d.Bodies {
		bl, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		body := make([]uint32, bl)
		for j := range body {
			v, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			if v&1 == 1 {
				ref := v >> 1
				if ref >= n {
					return nil, fmt.Errorf("sequitur: rule %d references out-of-range rule %d", i, ref)
				}
				body[j] = RuleBase + uint32(ref)
			} else {
				body[j] = uint32(v >> 1)
			}
		}
		d.Bodies[i] = body
	}
	if len(d.Bodies) == 0 {
		return nil, fmt.Errorf("sequitur: empty grammar")
	}
	return d, nil
}

// ExpandFunc streams the terminal sequence of the decoded grammar to fn.
// It returns an error if the grammar contains a reference cycle.
func (d *Decoded) ExpandFunc(fn func(uint32)) error {
	// Depth cannot exceed the number of rules in an acyclic grammar.
	maxDepth := len(d.Bodies) + 1
	type frame struct {
		body []uint32
		pos  int
	}
	stack := []frame{{body: d.Bodies[0]}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.pos >= len(top.body) {
			stack = stack[:len(stack)-1]
			continue
		}
		v := top.body[top.pos]
		top.pos++
		if v >= RuleBase {
			if len(stack) >= maxDepth {
				return fmt.Errorf("sequitur: grammar reference cycle detected")
			}
			stack = append(stack, frame{body: d.Bodies[v-RuleBase]})
		} else {
			fn(v)
		}
	}
	return nil
}

// Expand materializes the decoded grammar's terminal sequence.
func (d *Decoded) Expand() ([]uint32, error) {
	var out []uint32
	err := d.ExpandFunc(func(v uint32) { out = append(out, v) })
	return out, err
}
