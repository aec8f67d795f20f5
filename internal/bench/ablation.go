package bench

import (
	"fmt"
	"io"

	"twpp/internal/core"
	"twpp/internal/lzw"
	"twpp/internal/wppfile"
)

// Ablation quantifies the contribution of each design decision in the
// compacted TWPP representation, per benchmark:
//
//   - DBB dictionaries: TWPP built over dictionary-compacted traces
//     versus TWPP built over fully expanded traces;
//   - arithmetic-series timestamp encoding: sign-terminated series
//     entries versus raw timestamp lists;
//   - LZW on the DCG: compressed versus raw call graph bytes.
//
// All trace sizes use the paper's 4-bytes-per-word accounting.
type Ablation struct {
	Name string
	// Full is the shipped representation: dictionaries + series.
	Full int
	// NoDict keeps series encoding but expands all DBB dictionaries.
	NoDict int
	// NoSeries keeps dictionaries but stores every timestamp
	// individually.
	NoSeries int
	// Neither uses expanded traces and raw timestamps — the naive
	// B -> P(T) representation.
	Neither int
	// DCGRaw and DCGLZW are the dynamic call graph bytes before and
	// after LZW.
	DCGRaw, DCGLZW int
}

// MeasureAblation computes the ablation sizes for one benchmark run.
func MeasureAblation(r *Result) (*Ablation, error) {
	a := &Ablation{Name: r.Profile.Name}
	tw := r.TWPP

	traceB, dictB := tw.SizeStats()
	a.Full = traceB + dictB

	for f := range tw.Funcs {
		ft := &tw.Funcs[f]
		for i, tr := range ft.Traces {
			// NoSeries: per block, header words plus one word per raw
			// timestamp; plus the trace header; dictionaries kept.
			ns := 2
			for _, bt := range tr.Blocks {
				ns += 2 + bt.Times.Count()
			}
			a.NoSeries += 4 * ns

			// NoDict: rebuild the TWPP over the expanded path.
			path, err := ft.Expand(i)
			if err != nil {
				return nil, err
			}
			expanded := core.FromPath(path)
			a.NoDict += 4 * expanded.Words()

			// Neither: expanded path, raw timestamps.
			nn := 2
			for _, bt := range expanded.Blocks {
				nn += 2 + bt.Times.Count()
			}
			a.Neither += 4 * nn
		}
		for _, d := range ft.Dicts {
			w := 4 * d.Words()
			a.NoSeries += w
		}
	}

	// DCG: the compacted call graph's stored bytes, raw vs LZW.
	raw := wppfile.EncodeDCG(&tw.DCG)
	a.DCGRaw = len(raw)
	a.DCGLZW = len(lzw.Compress(raw))
	return a, nil
}

// AblationTable prints the ablation study.
func AblationTable(w io.Writer, abls []*Ablation) {
	fmt.Fprintln(w, "Ablation: contribution of each design decision (trace store bytes; factor vs full)")
	fmt.Fprintf(w, "%-16s %12s %14s %14s %14s %16s\n",
		"Program", "full(MB)", "no dict", "no series", "neither", "DCG lzw ratio")
	for _, a := range abls {
		fmt.Fprintf(w, "%-16s %12.2f %7.2f (x%4.2f) %7.2f (x%4.2f) %7.2f (x%4.2f) %10.1fx\n",
			a.Name,
			float64(a.Full)/1e6,
			float64(a.NoDict)/1e6, float64(a.NoDict)/float64(a.Full),
			float64(a.NoSeries)/1e6, float64(a.NoSeries)/float64(a.Full),
			float64(a.Neither)/1e6, float64(a.Neither)/float64(a.Full),
			float64(a.DCGRaw)/float64(a.DCGLZW))
	}
}
