package wpp

import (
	"fmt"

	"twpp/internal/cfg"
)

// compactTraceRef is the map-based DBB discovery that compactTrace
// replaced, kept verbatim as the reference oracle the dense kernel must
// match (FuzzCompactTrace). Its multi sentinel is block id -1, so it is
// only a valid oracle for non-negative ids.
func compactTraceRef(tr PathTrace) (PathTrace, Dictionary) {
	if len(tr) == 0 {
		return PathTrace{}, Dictionary{}
	}
	// Dynamic CFG: successor/predecessor sets of each block restricted
	// to this trace. succ[b] == 0 means none yet; -1 means multiple.
	succ := make(map[cfg.BlockID]cfg.BlockID)
	pred := make(map[cfg.BlockID]cfg.BlockID)
	const multi = cfg.BlockID(-1)
	for i := 0; i+1 < len(tr); i++ {
		u, v := tr[i], tr[i+1]
		if s, ok := succ[u]; !ok {
			succ[u] = v
		} else if s != v {
			succ[u] = multi
		}
		if p, ok := pred[v]; !ok {
			pred[v] = u
		} else if p != u {
			pred[v] = multi
		}
	}

	// chainEdge(u) reports whether the edge u -> succ[u] can be inside
	// a DBB: u has a unique dynamic successor v, v has a unique dynamic
	// predecessor (necessarily u), and v != u.
	chainEdge := func(u cfg.BlockID) (cfg.BlockID, bool) {
		v, ok := succ[u]
		if !ok || v == multi || v == u {
			return 0, false
		}
		if pred[v] != u { // covers the multi case too
			return 0, false
		}
		return v, true
	}

	// "Always entered from the first block": the trace's first block
	// must begin a chain, so sever any chain edge that enters it.
	// "Always exited from the last block": the trace's last block must
	// end a chain, so sever its outgoing chain edge.
	banStart := map[cfg.BlockID]bool{tr[0]: true}
	banOut := map[cfg.BlockID]bool{tr[len(tr)-1]: true}

	// Heads: blocks that start a maximal chain. A block b starts a
	// chain if it has an outgoing chain edge and either no incoming
	// chain edge or its incoming chain edge is severed.
	hasIncomingChain := func(v cfg.BlockID) bool {
		if banStart[v] {
			return false
		}
		u, ok := pred[v]
		if !ok || u == multi {
			return false
		}
		if banOut[u] {
			return false
		}
		w, ok := chainEdge(u)
		return ok && w == v
	}
	outgoingChain := func(u cfg.BlockID) (cfg.BlockID, bool) {
		if banOut[u] {
			return 0, false
		}
		v, ok := chainEdge(u)
		if !ok || banStart[v] {
			return 0, false
		}
		return v, true
	}

	dict := Dictionary{}
	inChain := map[cfg.BlockID]bool{}
	for b := range succ {
		if _, ok := outgoingChain(b); !ok {
			continue
		}
		if hasIncomingChain(b) {
			continue // interior node
		}
		// Walk the chain from head b. Cycles are impossible here: a
		// cycle has no head (every node has an incoming chain edge)
		// unless severed — and severing is what created this head.
		chain := PathTrace{b}
		seen := map[cfg.BlockID]bool{b: true}
		for u := b; ; {
			v, ok := outgoingChain(u)
			if !ok || seen[v] {
				break
			}
			chain = append(chain, v)
			seen[v] = true
			u = v
		}
		if len(chain) >= 2 {
			dict[b] = chain
			for _, id := range chain {
				inChain[id] = true
			}
		}
	}
	// Also ban chains through the final block of the trace when it has
	// no successors at all (it may not appear in succ); nothing to do —
	// such a block can only be a chain tail, which is fine.

	// Rewrite the trace: each occurrence of a chain head is followed by
	// the full chain (guaranteed by construction); emit the head and
	// skip the rest.
	var out PathTrace
	for i := 0; i < len(tr); {
		b := tr[i]
		if chain, ok := dict[b]; ok {
			// Defensive check: the construction guarantees a full
			// occurrence; verify in debug fashion.
			for j, cb := range chain {
				if i+j >= len(tr) || tr[i+j] != cb {
					panic(fmt.Sprintf("wpp: partial DBB occurrence of %v at %d in %v", chain, i, tr))
				}
			}
			out = append(out, b)
			i += len(chain)
		} else {
			out = append(out, b)
			i++
		}
	}
	return out, dict
}
