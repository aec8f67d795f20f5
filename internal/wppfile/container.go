// Container is the read surface shared by a single compacted file and
// a segmented container (internal/segment.Set): everything the serving
// layer, the CLIs, and the facade need to answer per-function queries
// without knowing how the bytes are laid out underneath.

package wppfile

import (
	"context"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/trace"
)

// Container abstracts an opened TWPP container. Both *CompactedFile
// (one v2/v1 file) and segment.Set (a manifest-described directory of
// sealed v2 segments) implement it. Implementations are safe for
// concurrent use.
//
// ContentHash identifies the current content; for a segmented
// container it changes whenever a background merge swaps the manifest
// generation, so cached responses keyed on it invalidate correctly.
type Container interface {
	// Functions lists present function ids, hottest first.
	Functions() []cfg.FuncID
	// CallCount reports fn's recorded invocation count (0 if absent).
	CallCount(fn cfg.FuncID) int
	// BlockLength reports the encoded on-disk size of fn's block(s).
	BlockLength(fn cfg.FuncID) int
	// Names returns the function name table (indexed by FuncID).
	Names() []string
	// ExtractFunction decodes one function's unique TWPP traces.
	ExtractFunction(fn cfg.FuncID) (*core.FunctionTWPP, error)
	// ExtractFunctionCtx is ExtractFunction with cooperative
	// cancellation.
	ExtractFunctionCtx(ctx context.Context, fn cfg.FuncID) (*core.FunctionTWPP, error)
	// ReadDCG decodes the dynamic call graph.
	ReadDCG() (trace.DCG, error)
	// ReadAll reconstructs the complete TWPP.
	ReadAll() (*core.TWPP, error)
	// SectionSizes reports the Table 3 byte breakdown (header/index,
	// DCG, function blocks), summed across segments when there are
	// several.
	SectionSizes() (header, dcg, blocks int64, err error)
	// FormatVersion reports the container format (FormatV1/FormatV2).
	FormatVersion() int
	// ContentHash returns a stable content identity, ok=false when the
	// container carries no checksums to derive one from (v1).
	ContentHash() (uint64, bool)
	// CacheStats reports cumulative decode-cache hits and misses.
	CacheStats() (hits, misses uint64)
	// CacheShardStats reports per-shard decode-cache counters (nil when
	// caching is disabled).
	CacheShardStats() []CacheShardStats
	// Close releases the container.
	Close() error
}

var _ Container = (*CompactedFile)(nil)

// Names returns the function name table, indexed by FuncID. The slice
// is the file's own (immutable after Open) — callers must not mutate
// it.
func (cf *CompactedFile) Names() []string { return cf.FuncNames }

// ContentHashBytes computes the ContentHash of an in-memory v2
// container image without opening it: the directory CRC sits in the
// fixed footer, so the hash is two reads. ok is false when the image
// is too short or does not end in the v2 directory magic (v1 images
// have no content hash).
func ContentHashBytes(data []byte) (uint64, bool) {
	if len(data) < V2FooterLen {
		return 0, false
	}
	tail := data[len(data)-V2FooterLen:]
	magic, err := encoding.Uint32(tail[8:])
	if err != nil || magic != MagicDirectory {
		return 0, false
	}
	dirCRC, err := encoding.Uint32(tail[4:8])
	if err != nil {
		return 0, false
	}
	return uint64(dirCRC)<<32 | uint64(uint32(len(data))), true
}
