// Container layout constants and the format v2 section machinery: the
// section/codec id spaces, CRC32-C checksumming, and the trailer
// section directory that makes a v2 file self-describing.
//
// # Format v1 (legacy, read-only support)
//
//	magic "TWPF" | version=1 | name table | index | dcgLen | DCG | blocks
//
// Everything is implicit: section boundaries are derived while parsing
// the header, and nothing is checksummed.
//
// # Format v2 (default write format)
//
//	magic "TWPF" | version=2 | META | DCG | BLOCKS | directory | footer
//
// The three sections are opaque byte ranges located by the trailer
// directory, so a reader seeks to the footer, loads the directory, and
// then reads only the sections it needs:
//
//	directory: nsec, then per section:
//	           id uvarint | codec uvarint | offset uvarint |
//	           length uvarint | crc32c fixed u32
//	footer:    dirLen fixed u32 | dirCRC fixed u32 | magic "TWPD"
//
// Offsets are absolute file offsets. Every section carries a CRC32-C
// of its stored bytes (compressed, for codec != raw), verified lazily
// the first time the section is read; the directory itself is covered
// by dirCRC. The META section additionally stores a CRC32-C per
// function block inside the index, so single-seek extraction verifies
// exactly the bytes it read without touching the rest of the BLOCKS
// section. Appending new sections (sharding maps, bloom filters,
// aggregate tables) is a directory entry, not a version bump: readers
// skip ids they do not know.

package wppfile

import (
	"hash/crc32"

	"twpp/internal/encoding"
)

// File format magics and versions.
const (
	MagicRaw       = 0x57505055 // "WPPU"
	MagicCompacted = 0x54575046 // "TWPF"
	// MagicDirectory terminates a v2 file ("TWPD"); its presence at
	// size-4 is how the reader distinguishes "v2 container with a
	// trailer" from "truncated garbage".
	MagicDirectory = 0x54575044

	// Version is the raw (uncompacted) format version.
	Version = 1

	// FormatV1 is the legacy compacted layout: implicit sections, no
	// checksums. Readable forever; only tests of the v1 reader write
	// it.
	FormatV1 = 1
	// FormatV2 is the sectioned container with the trailer directory
	// and CRC32-C checksums: the format every writer emits.
	FormatV2 = 2
)

// Section ids. Unknown ids are skipped by readers, so the id space can
// grow without a version bump.
const (
	// SecMeta holds the name table and the per-function index
	// (hottest-first), including per-block CRCs.
	SecMeta = 1
	// SecDCG holds the dynamic call graph (codec-compressed).
	SecDCG = 2
	// SecBlocks holds the concatenated per-function blocks.
	SecBlocks = 3
)

// Codec ids for section payloads.
const (
	// CodecRaw stores the section bytes as-is.
	CodecRaw = 0
	// CodecLZW stores the section LZW-compressed (the DCG codec).
	CodecLZW = 1
)

// V2 fixed-layout geometry, shared with the corruption sweeps so they
// can classify a mutation offset as header, payload, or footer.
const (
	// V2HeaderLen is the byte length of the v2 prefix (magic + the
	// one-byte version varint); sections start here.
	V2HeaderLen = 5
	// V2FooterLen is the fixed footer: dirLen u32, dirCRC u32, magic.
	V2FooterLen = 12
)

// castagnoli is the CRC32-C table used for every checksum in the v2
// container (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32-C of data.
func Checksum(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}

// checksumUpdate extends an accumulated CRC32-C with more bytes, the
// streaming-writer path of the BLOCKS section checksum.
func checksumUpdate(crc uint32, data []byte) uint32 {
	return crc32.Update(crc, castagnoli, data)
}

// section is one directory entry: a located, checksummed byte range.
type section struct {
	ID     uint64
	Codec  uint64
	Offset int64
	Length int64
	CRC    uint32
}

// appendDirectory appends the section directory and fixed footer. The
// caller passes the sections in file order.
func appendDirectory(buf []byte, secs []section) []byte {
	dirStart := len(buf)
	buf = encoding.PutUvarint(buf, uint64(len(secs)))
	for _, s := range secs {
		buf = encoding.PutUvarint(buf, s.ID)
		buf = encoding.PutUvarint(buf, s.Codec)
		buf = encoding.PutUvarint(buf, uint64(s.Offset))
		buf = encoding.PutUvarint(buf, uint64(s.Length))
		buf = encoding.PutUint32(buf, s.CRC)
	}
	dir := buf[dirStart:]
	buf = encoding.PutUint32(buf, uint32(len(dir)))
	buf = encoding.PutUint32(buf, Checksum(dir))
	return encoding.PutUint32(buf, MagicDirectory)
}

// parseDirectory decodes the directory bytes (footer excluded). base
// is the directory's absolute file offset, used in error offsets.
func parseDirectory(dir []byte, base, fileSize int64) ([]section, error) {
	c := encoding.NewCursor(dir)
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(dir)) {
		return nil, encoding.Errf(encoding.CodeCorrupt, base+int64(c.Pos()),
			"wppfile: directory declares %d sections in %d bytes", n, len(dir))
	}
	secs := make([]section, 0, n)
	seen := make(map[uint64]bool, n)
	for i := uint64(0); i < n; i++ {
		entryAt := base + int64(c.Pos())
		var s section
		if s.ID, err = c.Uvarint(); err != nil {
			return nil, err
		}
		if s.Codec, err = c.Uvarint(); err != nil {
			return nil, err
		}
		off, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		length, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if s.CRC, err = c.Uint32(); err != nil {
			return nil, err
		}
		s.Offset, s.Length = int64(off), int64(length)
		if s.Offset < V2HeaderLen || s.Length < 0 || s.Offset+s.Length > base {
			return nil, encoding.Errf(encoding.CodeCorrupt, entryAt,
				"wppfile: section %d (%d bytes at offset %d) outside payload range [%d, %d)",
				s.ID, s.Length, s.Offset, V2HeaderLen, base)
		}
		if seen[s.ID] {
			return nil, encoding.Errf(encoding.CodeCorrupt, entryAt, "wppfile: duplicate section id %d", s.ID)
		}
		seen[s.ID] = true
		secs = append(secs, s)
	}
	if !c.Done() {
		return nil, encoding.Errf(encoding.CodeCorrupt, base+int64(c.Pos()),
			"wppfile: %d trailing bytes in section directory", c.Len())
	}
	_ = fileSize
	return secs, nil
}

// findSection returns the entry with the given id, or nil.
func findSection(secs []section, id uint64) *section {
	for i := range secs {
		if secs[i].ID == id {
			return &secs[i]
		}
	}
	return nil
}

// checksumErr builds the structured mismatch error every checksum
// failure reports: code CodeChecksum, the section's absolute offset,
// and both sums.
func checksumErr(what string, offset int64, want, got uint32) error {
	return encoding.Errf(encoding.CodeChecksum, offset,
		"wppfile: %s checksum mismatch: stored %08x, computed %08x", what, want, got)
}
