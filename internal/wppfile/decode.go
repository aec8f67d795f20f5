// Compacted-format decoders: the per-function block and DCG payload
// decoders shared by both container formats, and the v1/v2 header
// parsers that populate a CompactedFile. Every declared count is
// checked against both the remaining input (CodeCorrupt) and the
// configured resource limits (CodeLimit) before any allocation is
// sized by it; in v2, section checksums are verified before any
// section content is parsed.

package wppfile

import (
	"io"

	"twpp/internal/cfg"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/storage"
	"twpp/internal/wpp"
)

// readBlockIDs batch-decodes len(dst) unsigned varints into dst
// through a fixed chunk scratch, so the decode is bounds-checked once
// per chunk and allocates nothing regardless of the caller's path.
func readBlockIDs(c *encoding.Cursor, dst []cfg.BlockID) error {
	var tmp [64]uint64
	for len(dst) > 0 {
		k := len(dst)
		if k > len(tmp) {
			k = len(tmp)
		}
		if err := c.UvarintBatch(tmp[:k]); err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			dst[i] = cfg.BlockID(tmp[i])
		}
		dst = dst[k:]
	}
	return nil
}

// decodeFunctionBlockInto decodes one function's block into b's
// reusable storage; the result aliases b. It is the one block decoder:
// owned extraction copies its result (see own), so both extraction
// paths return identical results and structured errors by
// construction. Offsets in the returned errors are relative to the
// block start.
func decodeFunctionBlockInto(data []byte, fn cfg.FuncID, lim limits, b *ExtractBuffer) (*core.FunctionTWPP, error) {
	c := encoding.NewCursor(data)
	ft := b.funcSlot(fn)
	cc, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	ft.CallCount = int(cc)
	nd, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if nd > uint64(c.Len()) {
		return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: dictionary count %d too large", nd)
	}
	ft.Dicts = b.allocDicts(int(nd))
	for i := range ft.Dicts {
		nh, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if nh > uint64(c.Len()) {
			return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: chain count %d too large", nh)
		}
		d := ft.Dicts[i]
		if d == nil {
			d = make(wpp.Dictionary, nh)
			ft.Dicts[i] = d
		} else {
			clear(d)
		}
		for j := uint64(0); j < nh; j++ {
			h, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			cl, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			if cl > uint64(c.Len()) {
				return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: chain length %d too large", cl)
			}
			chain := b.allocChain(int(cl))
			if err := readBlockIDs(c, chain); err != nil {
				return nil, err
			}
			d[cfg.BlockID(h)] = chain
		}
	}
	nt, err := c.Uvarint()
	if err != nil {
		return nil, err
	}
	if nt > uint64(c.Len()) {
		return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: trace count %d too large", nt)
	}
	if nt > lim.maxFuncTraces {
		return nil, encoding.Errf(encoding.CodeLimit, int64(c.Pos()),
			"wppfile: function %d declares %d traces, limit %d", fn, nt, lim.maxFuncTraces)
	}
	ft.Traces, ft.DictOf = b.allocTraces(int(nt))
	for i := range ft.Traces {
		di, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if di >= nd {
			return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()),
				"wppfile: dictionary index %d out of range (%d dictionaries)", di, nd)
		}
		ft.DictOf[i] = int(di)
		length, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if length > lim.maxSeqValues {
			return nil, encoding.Errf(encoding.CodeLimit, int64(c.Pos()),
				"wppfile: trace length %d exceeds limit %d", length, lim.maxSeqValues)
		}
		nb, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		if nb > uint64(c.Len()) {
			return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: block count %d too large", nb)
		}
		tr := ft.Traces[i]
		*tr = core.Trace{Len: int(length), Blocks: b.allocTimes(int(nb))}
		for j := range tr.Blocks {
			bid, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			nv, err := c.Uvarint()
			if err != nil {
				return nil, err
			}
			if nv > uint64(c.Len()) {
				return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: value count %d too large", nv)
			}
			if nv > lim.maxSeqValues {
				return nil, encoding.Errf(encoding.CodeLimit, int64(c.Pos()),
					"wppfile: timestamp value count %d exceeds limit %d", nv, lim.maxSeqValues)
			}
			vals := b.signedVals(int(nv))
			if err := c.VarintBatch(vals); err != nil {
				return nil, err
			}
			seq, err := core.DecodeSignedAppend(b.reserveEntries(int(nv)), vals)
			if err != nil {
				return nil, encoding.Wrap(encoding.CodeCorrupt, int64(c.Pos()), err, "")
			}
			b.commitEntries(seq)
			if len(seq) == 0 {
				// An empty set is nil, never an empty arena slice.
				seq = nil
			}
			tr.Blocks[j] = core.BlockTimes{Block: cfg.BlockID(bid), Times: seq}
		}
	}
	if !c.Done() {
		return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: %d trailing bytes in function block", c.Len())
	}
	return ft, nil
}

// maxDCGDepth bounds the DCG's call nesting, so a hostile section
// cannot recurse the decoder without limit.
const maxDCGDepth = 1 << 20

// decodeDCG decodes the preorder DCG encoding (function, trace index,
// child count, then per child its position delta and subtree) in two
// passes over the same walker. The first pass only counts nodes and
// child slots, failing exactly where the build would; the second
// carves every node and every Children/ChildPos slice from three slabs
// sized by that count, so the tree costs three allocations whatever
// its call count, and a hostile section is rejected before any slab
// is sized by it.
func decodeDCG(data []byte) (*wpp.CallNode, error) {
	d := dcgDecoder{c: encoding.NewCursor(data)}
	if _, err := d.decode(); err != nil {
		return nil, err
	}
	d = dcgDecoder{
		c:     encoding.NewCursor(data),
		nodes: make([]wpp.CallNode, d.nodeCount),
		kids:  make([]*wpp.CallNode, d.kidCount),
		pos:   make([]int, d.kidCount),
		build: true,
	}
	return d.decode()
}

// dcgDecoder is one decodeDCG pass. Counting, it only advances
// nodeCount and kidCount; building, it takes the next node and the
// next child slots from the slabs.
type dcgDecoder struct {
	c                   *encoding.Cursor
	nodes               []wpp.CallNode
	kids                []*wpp.CallNode
	pos                 []int
	nodeCount, kidCount int
	build               bool
}

// decode walks the whole encoding: the root's subtree, then nothing.
func (d *dcgDecoder) decode() (*wpp.CallNode, error) {
	root, err := d.node(0)
	if err != nil {
		return nil, err
	}
	if !d.c.Done() {
		return nil, encoding.Errf(encoding.CodeCorrupt, int64(d.c.Pos()), "wppfile: %d trailing bytes after DCG", d.c.Len())
	}
	return root, nil
}

// node decodes one subtree at the given nesting depth; it returns nil
// while counting.
func (d *dcgDecoder) node(depth int) (*wpp.CallNode, error) {
	c := d.c
	if depth > maxDCGDepth {
		return nil, encoding.Errf(encoding.CodeLimit, int64(c.Pos()), "wppfile: DCG nesting too deep")
	}
	// Function, trace index and child count, in one batch: it fails
	// at the same value and offset as three single reads would.
	var hdr [3]uint64
	if err := c.UvarintBatch(hdr[:]); err != nil {
		return nil, err
	}
	fn, ti, nc := hdr[0], hdr[1], hdr[2]
	if nc > uint64(c.Len()) {
		return nil, encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: DCG child count %d too large", nc)
	}
	var n *wpp.CallNode
	if d.build {
		n = &d.nodes[d.nodeCount]
		n.Fn, n.TraceIdx = cfg.FuncID(fn), int(ti)
		if nc > 0 {
			k := d.kidCount
			n.Children = d.kids[k : k+int(nc) : k+int(nc)]
			n.ChildPos = d.pos[k : k+int(nc) : k+int(nc)]
		}
	}
	d.nodeCount++
	d.kidCount += int(nc)
	prev := 0
	for i := 0; i < int(nc); i++ {
		delta, err := c.Uvarint()
		if err != nil {
			return nil, err
		}
		p := prev + int(delta)
		prev = p
		child, err := d.node(depth + 1)
		if err != nil {
			return nil, err
		}
		if n != nil {
			n.Children[i] = child
			n.ChildPos[i] = p
		}
	}
	return n, nil
}

// ---------------------------------------------------------------------
// Container header parsing.
// ---------------------------------------------------------------------

// readRange reads exactly n bytes at off from the backend, mapping a
// short read to a structured truncation error naming what was read.
func readRange(b storage.Backend, off, n int64, what string) ([]byte, error) {
	buf := make([]byte, n)
	got, err := b.ReadAt(buf, off)
	if int64(got) == n {
		// A full read ending exactly at EOF may carry io.EOF; the
		// bytes are all there.
		return buf, nil
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF || err == nil {
		return nil, encoding.Errf(encoding.CodeTruncated, off,
			"wppfile: short read of %s (%d of %d bytes)", what, got, n)
	}
	return nil, err
}

// parseHeader sniffs the container version and dispatches to the
// format-specific parser, populating cf.
func (cf *CompactedFile) parseHeader() error {
	// Read a generous prefix: enough for the whole v1 header in the
	// common case, and trivially enough to sniff magic + version.
	headLen := int64(1 << 16)
	if headLen > cf.size {
		headLen = cf.size
	}
	head := make([]byte, headLen)
	if headLen > 0 {
		if n, err := cf.b.ReadAt(head, 0); err != nil && n < len(head) {
			return err
		}
	}
	c := encoding.NewCursor(head)
	magic, err := c.Uint32()
	if err != nil {
		return err
	}
	if magic != MagicCompacted {
		return encoding.Errf(encoding.CodeBadMagic, 0, "wppfile: bad compacted magic %#x", magic)
	}
	ver, err := c.Uvarint()
	if err != nil {
		return err
	}
	switch ver {
	case FormatV1:
		cf.format = FormatV1
		if err := cf.parseV1(head); err != nil {
			// Retry with the whole file if the header prefix was too
			// small; otherwise fail.
			if int64(len(head)) >= cf.size {
				return err
			}
			full, err2 := readRange(cf.b, 0, cf.size, "file")
			if err2 != nil {
				return err2
			}
			return cf.parseV1(full)
		}
		return nil
	case FormatV2:
		cf.format = FormatV2
		return cf.parseV2()
	default:
		return encoding.Errf(encoding.CodeBadVersion, 4, "wppfile: unsupported version %d", ver)
	}
}

// parseV1 parses the legacy implicit layout from a prefix of the file.
// The logic (and every error message) predates format v2 and is kept
// byte-for-byte so v1 files keep failing identically.
func (cf *CompactedFile) parseV1(head []byte) error {
	c := encoding.NewCursor(head)
	magic, err := c.Uint32()
	if err != nil {
		return err
	}
	if magic != MagicCompacted {
		return encoding.Errf(encoding.CodeBadMagic, 0, "wppfile: bad compacted magic %#x", magic)
	}
	ver, err := c.Uvarint()
	if err != nil {
		return err
	}
	if ver != FormatV1 {
		return encoding.Errf(encoding.CodeBadVersion, 4, "wppfile: unsupported version %d", ver)
	}
	nf, err := c.Uvarint()
	if err != nil {
		return err
	}
	if nf > uint64(cf.size) {
		return encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: function count %d too large", nf)
	}
	cf.FuncNames = make([]string, nf)
	for i := range cf.FuncNames {
		if cf.FuncNames[i], err = c.String(); err != nil {
			return err
		}
	}
	ni, err := c.Uvarint()
	if err != nil {
		return err
	}
	if ni > uint64(cf.size) {
		return encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "wppfile: index count %d too large", ni)
	}
	cf.index = make(map[cfg.FuncID]indexEntry, ni)
	cf.order = cf.order[:0]
	for i := uint64(0); i < ni; i++ {
		var e indexEntry
		entryAt := int64(c.Pos())
		v, err := c.Uvarint()
		if err != nil {
			return err
		}
		// The encoder only indexes functions it named; an id beyond
		// the name table would later size allocations (ReadAll's Funcs
		// slice) from an attacker-controlled value.
		if v >= nf {
			return encoding.Errf(encoding.CodeCorrupt, entryAt,
				"wppfile: index entry function id %d beyond name table (%d names)", v, nf)
		}
		e.Fn = cfg.FuncID(v)
		// It also indexes each function once. A repeat would list the
		// function twice in Functions() and have ReadAll decode it
		// twice, racing on its one result slot.
		if _, dup := cf.index[e.Fn]; dup {
			return encoding.Errf(encoding.CodeCorrupt, entryAt, "wppfile: index lists function %d twice", e.Fn)
		}
		if v, err = c.Uvarint(); err != nil {
			return err
		}
		e.CallCount = int(v)
		if v, err = c.Uvarint(); err != nil {
			return err
		}
		e.Offset = int(v)
		if v, err = c.Uvarint(); err != nil {
			return err
		}
		e.Length = int(v)
		if e.Offset < 0 || e.Length < 0 {
			return encoding.Errf(encoding.CodeCorrupt, entryAt,
				"wppfile: index entry for function %d has negative bounds", e.Fn)
		}
		if int64(e.Length) > cf.lim.maxTraceBytes {
			return encoding.Errf(encoding.CodeLimit, entryAt,
				"wppfile: function %d block is %d bytes, limit %d", e.Fn, e.Length, cf.lim.maxTraceBytes)
		}
		cf.index[e.Fn] = e
		cf.order = append(cf.order, e.Fn)
	}
	dlAt := int64(c.Pos())
	dl, err := c.Uvarint()
	if err != nil {
		return err
	}
	if dl > uint64(cf.size) {
		return encoding.Errf(encoding.CodeCorrupt, dlAt, "wppfile: DCG length %d exceeds file size", dl)
	}
	cf.dcgLen = int(dl)
	cf.dcgOffset = int64(c.Pos())
	cf.dcgCodec = CodecLZW
	cf.blocksOffset = cf.dcgOffset + int64(dl)
	if cf.blocksOffset > cf.size {
		return encoding.Errf(encoding.CodeTruncated, dlAt,
			"wppfile: DCG section (%d bytes at offset %d) extends past end of file", dl, cf.dcgOffset)
	}
	// Every index entry must lie within the blocks section; checked
	// here, once, so extraction is a bounds-trusted positioned read.
	cf.blocksLen = cf.size - cf.blocksOffset
	for _, fn := range cf.order {
		e := cf.index[fn]
		if int64(e.Offset)+int64(e.Length) > cf.blocksLen {
			return encoding.Errf(encoding.CodeTruncated, -1,
				"wppfile: function %d block (%d bytes at offset %d) extends past end of file (%d-byte blocks section)",
				e.Fn, e.Length, e.Offset, cf.blocksLen)
		}
	}
	// v1 has nothing to checksum.
	cf.dcgVerified.Store(true)
	return nil
}

// parseV2 parses the sectioned container: footer, directory (CRC
// verified before decoding), then the META section (CRC verified
// before decoding). The DCG and BLOCKS sections are located but not
// read; their checksums verify lazily on first read, or eagerly via
// verifyAllSections.
func (cf *CompactedFile) parseV2() error {
	if cf.size < V2HeaderLen+V2FooterLen {
		return encoding.Errf(encoding.CodeTruncated, cf.size,
			"wppfile: v2 container too small (%d bytes)", cf.size)
	}
	foot, err := readRange(cf.b, cf.size-V2FooterLen, V2FooterLen, "v2 footer")
	if err != nil {
		return err
	}
	c := encoding.NewCursor(foot)
	dirLen32, _ := c.Uint32()
	dirCRC, _ := c.Uint32()
	magic, _ := c.Uint32()
	if magic != MagicDirectory {
		return encoding.Errf(encoding.CodeCorrupt, cf.size-4,
			"wppfile: missing directory magic at end of v2 container (found %#x)", magic)
	}
	dirLen := int64(dirLen32)
	if dirLen > cf.size-V2HeaderLen-V2FooterLen {
		return encoding.Errf(encoding.CodeCorrupt, cf.size-V2FooterLen,
			"wppfile: directory length %d exceeds container payload", dirLen)
	}
	dirOff := cf.size - V2FooterLen - dirLen
	dir, err := readRange(cf.b, dirOff, dirLen, "section directory")
	if err != nil {
		return err
	}
	if got := Checksum(dir); got != dirCRC {
		return checksumErr("section directory", dirOff, dirCRC, got)
	}
	cf.dirCRC = dirCRC
	secs, err := parseDirectory(dir, dirOff, cf.size)
	if err != nil {
		return err
	}
	meta := findSection(secs, SecMeta)
	dcg := findSection(secs, SecDCG)
	blocks := findSection(secs, SecBlocks)
	if meta == nil || dcg == nil || blocks == nil {
		return encoding.Errf(encoding.CodeCorrupt, dirOff,
			"wppfile: directory missing a required section (META, DCG, BLOCKS)")
	}
	if meta.Codec != CodecRaw || blocks.Codec != CodecRaw {
		return encoding.Errf(encoding.CodeCorrupt, dirOff,
			"wppfile: unsupported codec for META (%d) or BLOCKS (%d) section", meta.Codec, blocks.Codec)
	}
	if dcg.Codec != CodecRaw && dcg.Codec != CodecLZW {
		return encoding.Errf(encoding.CodeCorrupt, dirOff,
			"wppfile: unsupported DCG codec %d", dcg.Codec)
	}
	cf.dcgOffset = dcg.Offset
	cf.dcgLen = int(dcg.Length)
	cf.dcgCodec = dcg.Codec
	cf.dcgCRC = dcg.CRC
	cf.blocksOffset = blocks.Offset
	cf.blocksLen = blocks.Length
	cf.blocksCRC = blocks.CRC

	// META is needed now; verify before parsing so a damaged index
	// reports checksum-mismatch, not some downstream structural error.
	mb, err := readRange(cf.b, meta.Offset, meta.Length, "META section")
	if err != nil {
		return err
	}
	if got := Checksum(mb); got != meta.CRC {
		return checksumErr("META section", meta.Offset, meta.CRC, got)
	}
	return cf.parseMetaV2(mb, meta.Offset)
}

// parseMetaV2 decodes the META section payload (name table + index).
// base is the section's absolute file offset, used in error offsets.
func (cf *CompactedFile) parseMetaV2(mb []byte, base int64) error {
	c := encoding.NewCursor(mb)
	abs := func() int64 { return base + int64(c.Pos()) }
	nf, err := c.Uvarint()
	if err != nil {
		return err
	}
	if nf > uint64(cf.size) {
		return encoding.Errf(encoding.CodeCorrupt, abs(), "wppfile: function count %d too large", nf)
	}
	cf.FuncNames = make([]string, nf)
	for i := range cf.FuncNames {
		if cf.FuncNames[i], err = c.String(); err != nil {
			return err
		}
	}
	ni, err := c.Uvarint()
	if err != nil {
		return err
	}
	if ni > uint64(cf.size) {
		return encoding.Errf(encoding.CodeCorrupt, abs(), "wppfile: index count %d too large", ni)
	}
	cf.index = make(map[cfg.FuncID]indexEntry, ni)
	cf.order = cf.order[:0]
	for i := uint64(0); i < ni; i++ {
		var e indexEntry
		entryAt := abs()
		v, err := c.Uvarint()
		if err != nil {
			return err
		}
		if v >= nf {
			return encoding.Errf(encoding.CodeCorrupt, entryAt,
				"wppfile: index entry function id %d beyond name table (%d names)", v, nf)
		}
		e.Fn = cfg.FuncID(v)
		if _, dup := cf.index[e.Fn]; dup {
			return encoding.Errf(encoding.CodeCorrupt, entryAt, "wppfile: index lists function %d twice", e.Fn)
		}
		if v, err = c.Uvarint(); err != nil {
			return err
		}
		e.CallCount = int(v)
		if v, err = c.Uvarint(); err != nil {
			return err
		}
		e.Offset = int(v)
		if v, err = c.Uvarint(); err != nil {
			return err
		}
		e.Length = int(v)
		if e.CRC, err = c.Uint32(); err != nil {
			return err
		}
		if e.Offset < 0 || e.Length < 0 {
			return encoding.Errf(encoding.CodeCorrupt, entryAt,
				"wppfile: index entry for function %d has negative bounds", e.Fn)
		}
		if int64(e.Length) > cf.lim.maxTraceBytes {
			return encoding.Errf(encoding.CodeLimit, entryAt,
				"wppfile: function %d block is %d bytes, limit %d", e.Fn, e.Length, cf.lim.maxTraceBytes)
		}
		if int64(e.Offset)+int64(e.Length) > cf.blocksLen {
			return encoding.Errf(encoding.CodeCorrupt, entryAt,
				"wppfile: function %d block (%d bytes at offset %d) extends past BLOCKS section (%d bytes)",
				e.Fn, e.Length, e.Offset, cf.blocksLen)
		}
		cf.index[e.Fn] = e
		cf.order = append(cf.order, e.Fn)
	}
	if !c.Done() {
		return encoding.Errf(encoding.CodeCorrupt, abs(), "wppfile: %d trailing bytes in META section", c.Len())
	}
	return nil
}

// verifyAllSections eagerly checks every v2 section checksum,
// including the whole BLOCKS section (read in bounded chunks so
// verification never allocates proportionally to the file). The META
// section and directory were already verified during parseV2. On v1
// files it is a no-op: there is nothing to verify.
func (cf *CompactedFile) verifyAllSections() error {
	if cf.format != FormatV2 {
		return nil
	}
	dcg, err := readRange(cf.b, cf.dcgOffset, int64(cf.dcgLen), "DCG section")
	if err != nil {
		return err
	}
	if got := Checksum(dcg); got != cf.dcgCRC {
		return checksumErr("DCG section", cf.dcgOffset, cf.dcgCRC, got)
	}
	cf.dcgVerified.Store(true)

	const chunk = int64(1) << 20
	var crc uint32
	for off := int64(0); off < cf.blocksLen; off += chunk {
		part, err := readRange(cf.b, cf.blocksOffset+off, min64(chunk, cf.blocksLen-off), "BLOCKS section")
		if err != nil {
			return err
		}
		crc = checksumUpdate(crc, part)
	}
	if crc != cf.blocksCRC {
		return checksumErr("BLOCKS section", cf.blocksOffset, cf.blocksCRC, crc)
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
