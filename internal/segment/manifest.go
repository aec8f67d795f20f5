// Package segment implements segmented TWPP containers: a directory
// holding a small manifest plus N sealed v2 segment files, each a
// complete compacted container in its own right. The layout is
// LSM-shaped — Write and Append seal small segments, a background
// merger folds adjacent runs into larger ones — while reads preserve
// the paper's one-positioned-read-per-function invariant within every
// segment.
//
// The manifest is the unit of atomicity: it names the live segments in
// order, records each one's size and content hash (derived from the v2
// trailer directory CRC), and carries a generation number that
// advances on every rewrite. Swapping in a merged generation is a
// write-temp-then-rename of this one small file, so concurrent readers
// observe either the old segment list or the new one, never a mix.
//
// Global trace numbering invariant: the traces of a function are the
// keep-first deduplicated concatenation of its per-segment trace lists
// in manifest order. Folding an adjacent run of segments into one
// never changes that global order (a first occurrence stays a first
// occurrence), so the dynamic call graph — stored once, in the segment
// flagged FlagDCG, with set-global trace indices — stays valid across
// merges without rewriting.
package segment

import (
	"fmt"
	"os"
	"path/filepath"

	"twpp/internal/encoding"
	"twpp/internal/wppfile"
)

// ManifestName is the manifest's file name inside a container
// directory. Its presence is how CLIs auto-detect a segmented
// container.
const ManifestName = "MANIFEST"

// MagicManifest is the manifest magic ("TWPS" big-endian), distinct
// from the segment files' own container magic.
const MagicManifest = 0x54575053

// ManifestVersion is the current manifest format version.
const ManifestVersion = 1

// Entry flags.
const (
	// FlagDCG marks the segment carrying the container's dynamic call
	// graph (with set-global trace indices). At most one live segment
	// carries it.
	FlagDCG = 1 << 0
)

// Entry describes one live segment in manifest order.
type Entry struct {
	// Name is the segment's file name, relative to the container
	// directory.
	Name string
	// Size is the segment file's byte size, checked at open.
	Size int64
	// Hash is the segment's content hash (CompactedFile.ContentHash:
	// v2 directory CRC32-C combined with the size), checked against
	// the opened segment.
	Hash uint64
	// Flags carries FlagDCG and future per-segment bits.
	Flags uint64
	// Session identifies the write session that sealed this segment
	// (one ordinal per Write or Append; merges mint fresh ids unless
	// every folded input shares one). Windows sealed by the same session
	// partition one compaction's unique-trace lists, so a function
	// spanning only same-session segments merges by pure
	// concatenation — no per-trace dedup hashing. 0 means unknown and
	// always forces the full dedup path.
	Session uint64
}

// Manifest is the decoded manifest: the ordered live-segment list and
// its generation.
type Manifest struct {
	// Generation advances by one on every manifest rewrite (initial
	// write, merge swap, append).
	Generation uint64
	// Segments lists the live segments in read order.
	Segments []Entry
}

// DCGIndex returns the index of the FlagDCG segment, or -1.
func (m *Manifest) DCGIndex() int {
	for i, e := range m.Segments {
		if e.Flags&FlagDCG != 0 {
			return i
		}
	}
	return -1
}

// EncodeManifest serializes a manifest: magic, version, generation,
// entry count, entries (name, size, hash, flags, session), then a
// CRC32-C of everything preceding it.
func EncodeManifest(m *Manifest) []byte {
	buf := encoding.PutUint32(nil, MagicManifest)
	buf = encoding.PutUvarint(buf, ManifestVersion)
	buf = encoding.PutUvarint(buf, m.Generation)
	buf = encoding.PutUvarint(buf, uint64(len(m.Segments)))
	for _, e := range m.Segments {
		buf = encoding.PutString(buf, e.Name)
		buf = encoding.PutUvarint(buf, uint64(e.Size))
		buf = encoding.PutUint64(buf, e.Hash)
		buf = encoding.PutUvarint(buf, e.Flags)
		buf = encoding.PutUvarint(buf, e.Session)
	}
	return encoding.PutUint32(buf, wppfile.Checksum(buf))
}

// DecodeManifest parses manifest bytes, verifying the trailing
// checksum before trusting any field lengths. All failures are
// structured encoding errors: CodeBadMagic / CodeBadVersion for the
// prefix, CodeTruncated / CodeChecksum / CodeCorrupt for the body.
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < 4+1+4 {
		return nil, encoding.Errf(encoding.CodeTruncated, 0,
			"segment: manifest too short (%d bytes)", len(data))
	}
	magic, err := encoding.Uint32(data)
	if err != nil {
		return nil, err
	}
	if magic != MagicManifest {
		return nil, encoding.Errf(encoding.CodeBadMagic, 0,
			"segment: bad manifest magic %08x", magic)
	}
	// Checksum covers everything before the trailing 4 bytes; verify
	// it first so a flipped length field cannot direct a huge read.
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want, err := encoding.Uint32(tail)
	if err != nil {
		return nil, err
	}
	if got := wppfile.Checksum(body); got != want {
		return nil, encoding.Errf(encoding.CodeChecksum, int64(len(body)),
			"segment: manifest checksum mismatch: stored %08x, computed %08x", want, got)
	}
	c := encoding.NewCursor(body[4:])
	version, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if version != ManifestVersion {
		return nil, encoding.Errf(encoding.CodeBadVersion, int64(c.Pos()),
			"segment: unsupported manifest version %d", version)
	}
	m := &Manifest{}
	if m.Generation, err = c.Uvarint(); err != nil {
		return nil, err
	}
	n, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each entry needs at least 12 bytes (1-byte name length, 1-byte
	// size, 8-byte hash, 1-byte flags, 1-byte session), so a hostile
	// count cannot demand more entries than the body could hold.
	if n > uint64(c.Len())/12 {
		return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()),
			"segment: manifest declares %d segments, only %d bytes remain", n, c.Len())
	}
	seen := make(map[string]bool, n)
	dcg := false
	for i := uint64(0); i < n; i++ {
		var e Entry
		if e.Name, err = c.String(); err != nil {
			return nil, err
		}
		size, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		e.Size = int64(size)
		if e.Hash, err = readUint64(c); err != nil {
			return nil, err
		}
		if e.Flags, err = c.Uvarint(); err != nil {
			return nil, err
		}
		if e.Session, err = c.Uvarint(); err != nil {
			return nil, err
		}
		if e.Name == "" || e.Name != filepath.Base(e.Name) || e.Name == "." || e.Name == ".." {
			return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()),
				"segment: manifest entry %d has invalid name %q", i, e.Name)
		}
		if seen[e.Name] {
			return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()),
				"segment: manifest lists segment %q twice", e.Name)
		}
		seen[e.Name] = true
		if e.Flags&FlagDCG != 0 {
			if dcg {
				return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()),
					"segment: manifest flags two DCG segments")
			}
			dcg = true
		}
		m.Segments = append(m.Segments, e)
	}
	if !c.Done() {
		return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()),
			"segment: %d trailing bytes after manifest entries", c.Len())
	}
	return m, nil
}

// readUint64 reads a fixed 8-byte big-endian value through the cursor.
func readUint64(c *encoding.Cursor) (uint64, error) {
	b, err := c.Bytes(8)
	if err != nil {
		return 0, err
	}
	return encoding.Uint64(b)
}

// ReadManifest loads and decodes dir's manifest.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return DecodeManifest(data)
}

// WriteManifest atomically installs m as dir's manifest: the bytes go
// to a temp file in the same directory, are fsynced, and are renamed
// over ManifestName. Readers (in this or another process) observe
// either the previous manifest or this one in full.
func WriteManifest(dir string, m *Manifest) error {
	tmp, err := os.CreateTemp(dir, ManifestName+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(EncodeManifest(m)); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, ManifestName)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// IsSegmented reports whether path is a segmented-container directory
// (a directory containing a manifest).
func IsSegmented(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		return false
	}
	_, err = os.Stat(filepath.Join(path, ManifestName))
	return err == nil
}

// segmentName builds the canonical segment file name: the generation
// that sealed it plus its ordinal within that generation. Names never
// collide across generations, so a merged segment never overwrites a
// live one.
func segmentName(generation uint64, ordinal int) string {
	return fmt.Sprintf("seg-%06d-%04d.twpp", generation, ordinal)
}
