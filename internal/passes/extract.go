// Pooled extraction for passes. Every pass that decodes a function
// goes through Extract, which routes to the container's
// zero-allocation pooled path when it has one (the PR 6 discipline:
// warm extractions allocate nothing) and falls back to the plain
// interface method otherwise. The cost of pooling is an ownership
// rule: the decoded FunctionTWPP aliases the pooled buffer, so a pass
// must copy everything it returns out of the extraction before calling
// release — result structs hold ints and strings, never core slices.

package passes

import (
	"context"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/segment"
	"twpp/internal/wppfile"
)

// Extract decodes fn from c through the pooled zero-allocation path
// when available. The returned release func must be called exactly
// once, after the extraction result (and anything aliasing it) is
// dead; the result must not escape the pass.
//
// Containers with a decode cache enabled take the cacheable path
// instead: pooled decodes are never inserted into the cache (the cache
// must own its blocks), so pooling there would starve the cross-request
// sharing a serving layer configures the cache for.
func Extract(ctx context.Context, c wppfile.Container, fn cfg.FuncID) (ft *core.FunctionTWPP, release func(), err error) {
	if c.CacheShardStats() != nil {
		ft, err = c.ExtractFunctionCtx(ctx, fn)
		if err != nil {
			return nil, nil, err
		}
		return ft, func() {}, nil
	}
	switch f := c.(type) {
	case *wppfile.CompactedFile:
		buf := wppfile.GetExtractBuffer()
		ft, err = f.ExtractFunctionIntoCtx(ctx, fn, buf)
		if err != nil {
			wppfile.PutExtractBuffer(buf)
			return nil, nil, err
		}
		return ft, func() { wppfile.PutExtractBuffer(buf) }, nil
	case *segment.Set:
		buf := segment.GetBuffer()
		ft, err = f.ExtractFunctionIntoCtx(ctx, fn, buf)
		if err != nil {
			segment.PutBuffer(buf)
			return nil, nil, err
		}
		return ft, func() { segment.PutBuffer(buf) }, nil
	default:
		ft, err = c.ExtractFunctionCtx(ctx, fn)
		if err != nil {
			return nil, nil, err
		}
		return ft, func() {}, nil
	}
}

// MaxExpandBlocks bounds the total expanded (dictionary-applied) path
// length a single pass invocation may materialize. Expansion is the
// one place an analysis leaves the compacted domain — dynamic-CFG
// construction and iteration splitting need the block sequence — and
// arithmetic-series timestamps let a tiny hostile container declare an
// enormous trace, so the bound is enforced *before* any
// length-proportional allocation. Exceeding it is a structured
// resource-limit rejection (exit 5, HTTP 422), the same class as the
// decode limits in wppfile.OpenOptions.
const MaxExpandBlocks = 1 << 22

// checkExpand validates that expanding the given traces stays under
// MaxExpandBlocks, counting expanded (post-dictionary) lengths.
func checkExpand(ft *core.FunctionTWPP, traceIdx int) error {
	return checkExpandScaled(ft, traceIdx, 1)
}

// checkExpandScaled is checkExpand with a per-block multiplier: a pass
// that may materialize each expanded block up to scale times (kpaths
// copies blocks into up to k overlapping windows) must bound the
// product, or a maximal scale against a container near the limit would
// allocate scale× the budget before any per-window work starts. The
// comparison divides rather than multiplies so a hostile container
// declaring a near-overflow expansion cannot wrap the product.
func checkExpandScaled(ft *core.FunctionTWPP, traceIdx int, scale int64) error {
	total := int64(0)
	if traceIdx >= 0 {
		total = ft.ExpandedLen(traceIdx)
	} else {
		for i := range ft.Traces {
			total += ft.ExpandedLen(i)
		}
	}
	if total > MaxExpandBlocks/scale {
		return &encoding.Error{
			Code:   encoding.CodeLimit,
			Offset: -1,
			Detail: "trace expansion exceeds the analysis limit",
		}
	}
	return nil
}
