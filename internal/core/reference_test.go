package core

import (
	"twpp/internal/cfg"
	"twpp/internal/wpp"
)

// fromPathRef is the map-based timestamp inversion that FromPath
// replaced, kept verbatim as the reference oracle the dense kernel must
// match (FuzzFromPath).
func fromPathRef(path wpp.PathTrace) *Trace {
	order := make([]cfg.BlockID, 0, 8)
	times := make(map[cfg.BlockID][]Timestamp)
	for i, b := range path {
		if _, ok := times[b]; !ok {
			order = append(order, b)
		}
		times[b] = append(times[b], Timestamp(i+1))
	}
	tr := &Trace{Len: len(path), Blocks: make([]BlockTimes, len(order))}
	for i, b := range order {
		tr.Blocks[i] = BlockTimes{Block: b, Times: CompactSeries(times[b])}
	}
	return tr
}
