// Package sequitur implements the Sequitur linear-time grammar inference
// algorithm (Nevill-Manning & Witten, "Linear-time, Incremental Hierarchy
// Inference for Compression", DCC 1997), together with the Larus-style
// whole-program-path compression built on it (Larus, "Whole Program
// Paths", PLDI 1999). This is the baseline that Zhang & Gupta compare the
// TWPP representation against (PLDI 2001, Table 5).
//
// Sequitur consumes a sequence of symbols and produces a context-free
// grammar generating exactly that sequence, maintaining two invariants:
//
//   - digram uniqueness: no pair of adjacent symbols appears more than
//     once in the grammar;
//   - rule utility: every rule (other than the start rule) is referenced
//     at least twice.
//
// Symbols are uint32 values. Values below RuleBase are terminals; values
// >= RuleBase name rules (RuleBase+i is rule i; rule 0 is the start
// rule).
package sequitur

import "fmt"

// RuleBase is the first symbol value that names a rule rather than a
// terminal. Inputs to Append must be < RuleBase.
const RuleBase = 1 << 30

// symbol is a node in a rule's doubly-linked body list. Each rule's body
// is circular through a guard node whose rule field points at the owning
// rule.
type symbol struct {
	next, prev *symbol
	value      uint32
	rule       *rule // owning rule if guard; referenced rule if nonterminal
	guard      bool
}

func (s *symbol) isNonterminal() bool { return !s.guard && s.rule != nil }

// rule is a grammar production. Its body hangs off the guard node.
type rule struct {
	guard *symbol
	id    uint32 // index into Grammar.rules
	uses  int    // reference count from nonterminal symbols
}

func (r *rule) first() *symbol { return r.guard.next }
func (r *rule) last() *symbol  { return r.guard.prev }

// Grammar incrementally builds a Sequitur grammar. Create one with New,
// feed terminals with Append, and read the result with Expand or
// Encode.
type Grammar struct {
	rules   []*rule
	free    []uint32 // recycled ids of inlined rules
	digrams map[uint64]*symbol
	length  int // number of terminals appended
}

// New returns an empty grammar holding just the start rule.
func New() *Grammar {
	g := &Grammar{digrams: make(map[uint64]*symbol)}
	g.newRule()
	return g
}

func (g *Grammar) newRule() *rule {
	var id uint32
	if n := len(g.free); n > 0 {
		id = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		id = uint32(len(g.rules))
		g.rules = append(g.rules, nil)
	}
	r := &rule{id: id}
	guard := &symbol{rule: r, guard: true}
	guard.next = guard
	guard.prev = guard
	r.guard = guard
	g.rules[id] = r
	return r
}

func (g *Grammar) freeRule(r *rule) {
	g.rules[r.id] = nil
	g.free = append(g.free, r.id)
}

func digramKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

// symValue is the value of s for digram purposes: terminals compare by
// terminal value, nonterminals by the rule they reference.
func symValue(s *symbol) uint32 {
	if s.isNonterminal() {
		return RuleBase + s.rule.id
	}
	return s.value
}

// Len reports the number of terminals appended so far.
func (g *Grammar) Len() int { return g.length }

// NumRules reports the number of live rules, including the start rule.
func (g *Grammar) NumRules() int { return len(g.rules) - len(g.free) }

// Append feeds one terminal symbol to the grammar. v must be < RuleBase.
func (g *Grammar) Append(v uint32) {
	if v >= RuleBase {
		panic(fmt.Sprintf("sequitur: terminal %d >= RuleBase", v))
	}
	g.length++
	start := g.rules[0]
	s := &symbol{value: v}
	g.insertAfter(start.last(), s)
	if prev := s.prev; !prev.guard {
		g.check(prev)
	}
}

// insertAfter links n into the list after pos. Digram index maintenance
// is the caller's responsibility.
func (g *Grammar) insertAfter(pos, n *symbol) {
	n.prev = pos
	n.next = pos.next
	pos.next.prev = n
	pos.next = n
}

// deleteDigram removes the digram starting at s from the index, but only
// if the index entry is s itself (it may point at another occurrence).
func (g *Grammar) deleteDigram(s *symbol) {
	if s.guard || s.next.guard {
		return
	}
	key := digramKey(symValue(s), symValue(s.next))
	if g.digrams[key] == s {
		delete(g.digrams, key)
	}
}

// remove unlinks s from its list, dropping index entries that point at
// the destroyed digrams and the rule reference count if s is a
// nonterminal.
func (g *Grammar) remove(s *symbol) {
	g.deleteDigram(s)
	if !s.prev.guard {
		g.deleteDigram(s.prev)
	}
	s.prev.next = s.next
	s.next.prev = s.prev
	if s.isNonterminal() {
		s.rule.uses--
	}
}

// check enforces digram uniqueness for the digram starting at s. It
// returns true if the grammar changed.
func (g *Grammar) check(s *symbol) bool {
	if s.guard || s.next.guard {
		return false
	}
	key := digramKey(symValue(s), symValue(s.next))
	match, ok := g.digrams[key]
	if !ok {
		g.digrams[key] = s
		return false
	}
	if match == s {
		return false
	}
	if match.next == s || s.next == match {
		// Overlapping occurrence (e.g. "aaa"): leave it alone.
		return false
	}
	g.match(s, match)
	return true
}

// copyInto creates a fresh symbol with the same meaning as src and
// appends it to the body of r, maintaining reference counts.
func (g *Grammar) copyInto(r *rule, src *symbol) *symbol {
	n := &symbol{}
	if src.isNonterminal() {
		n.rule = src.rule
		n.rule.uses++
	} else {
		n.value = src.value
	}
	g.insertAfter(r.last(), n)
	return n
}

// match resolves a repeated digram: s and m are non-overlapping
// occurrences of the same digram.
func (g *Grammar) match(s, m *symbol) {
	var r *rule
	if m.prev.guard && m.next.next.guard {
		// m is the complete body of its rule: reuse that rule.
		r = m.prev.rule
		g.substitute(s, r)
	} else {
		// Make a new rule whose body is a copy of the digram, replace
		// both occurrences, then index the new rule's own digram.
		r = g.newRule()
		a := g.copyInto(r, s)
		b := g.copyInto(r, s.next)
		g.substitute(m, r)
		g.substitute(s, r)
		g.digrams[digramKey(symValue(a), symValue(b))] = a
	}
	// Rule utility: a nonterminal inside r's body may have just lost its
	// other uses. Its sole remaining use is then that body occurrence.
	if f := r.first(); f.isNonterminal() && f.rule.uses == 1 {
		g.expand(f)
	}
	// r may itself have been restructured; re-read last and guard
	// against the body having been spliced away entirely.
	if g.rules[r.id] == r {
		if l := r.last(); !l.guard && l.isNonterminal() && l.rule.uses == 1 {
			g.expand(l)
		}
	}
}

// substitute replaces the digram starting at s with a nonterminal
// referencing r, then restores digram uniqueness around the splice.
func (g *Grammar) substitute(s *symbol, r *rule) {
	prev := s.prev
	g.remove(s)
	g.remove(prev.next) // the former s.next
	n := &symbol{rule: r}
	r.uses++
	g.insertAfter(prev, n)
	if !g.check(prev) {
		g.check(n)
	}
}

// expand inlines the rule referenced by use (its sole remaining use) and
// frees that rule.
func (g *Grammar) expand(use *symbol) {
	r := use.rule
	prev := use.prev
	next := use.next
	first := r.first()
	last := r.last()

	g.deleteDigram(use)
	if !prev.guard {
		g.deleteDigram(prev)
	}
	// Splice r's body in place of use.
	prev.next = first
	first.prev = prev
	last.next = next
	next.prev = last
	g.freeRule(r)

	// Record the junction digrams in the index (as classic Sequitur
	// does) without running full checks: expand is invoked from inside
	// match, and reentrant restructuring here could unlink symbols that
	// match still holds. Overwriting a stale entry is benign — later
	// checks against it resolve normally.
	if !prev.guard && !first.guard {
		g.digrams[digramKey(symValue(prev), symValue(first))] = prev
	}
	if !last.guard && !next.guard {
		g.digrams[digramKey(symValue(last), symValue(next))] = last
	}
}
