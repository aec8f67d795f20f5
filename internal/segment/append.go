// Append and commit: the one way a session becomes part of a
// container. Write (writer.go) commits the first session of a new
// container; Append seals one more session into a container that is
// already live — the operation a long-running ingest service performs
// once per finished stream. Both run commit: the session's segments are
// written under the NEXT generation's names (never colliding with live
// files), its entries go to the tail of the manifest, and the manifest
// rewrite is the atomic commit point: concurrent readers (a colocated
// or remote twpp-serve) observe either the old container or the old
// container plus the whole new session, never a partial session. A
// failed commit removes the segment files it wrote; a crash between
// segment writes and the manifest rewrite leaves only unreferenced
// files.
//
// Trace-numbering invariant: appending at the tail keeps every earlier
// session's traces at the head of each merged per-function trace list,
// so the container DCG (first session, FlagDCG) keeps valid set-global
// indices. Each commit gets the next write-session id, so a session's
// own windows stay provably disjoint for the spanning merge.
//
// Every session keeps its own DCG section in its first segment's bytes;
// only the FlagDCG manifest bit is withheld when the container already
// has one. That makes a single-segment session byte-identical to the
// offline streaming pipeline's v2 file for the same events, which is
// the ingest parity oracle's invariant; nothing reads an unflagged DCG
// section, so readers are unaffected.

package segment

import (
	"fmt"
	"os"
	"path/filepath"

	"twpp/internal/core"
	"twpp/internal/wppfile"
)

// sealSegment encodes one segment TWPP as a v2 file under the
// canonical name for (generation, ordinal) and returns its manifest
// entry. It is the only function that writes segment files: commit
// seals each session's segments through it and Merger.fold each merged
// segment.
func sealSegment(dir string, t *core.TWPP, generation uint64, ordinal int, workers int, session uint64, flagDCG bool) (Entry, error) {
	data, err := wppfile.EncodeCompactedFormat(t, workers, wppfile.FormatV2)
	if err != nil {
		return Entry{}, err
	}
	hash, ok := wppfile.ContentHashBytes(data)
	if !ok {
		return Entry{}, fmt.Errorf("segment: encoded segment has no content hash")
	}
	name := segmentName(generation, ordinal)
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		return Entry{}, err
	}
	e := Entry{Name: name, Size: int64(len(data)), Hash: hash, Session: session}
	if flagDCG {
		e.Flags |= FlagDCG
	}
	return e, nil
}

// Append seals t as one new write session at the tail of the existing
// container in dir and commits it by rewriting the manifest at the
// next generation. It returns the new manifest; the appended session's
// entries are the trailing run sharing the highest session id. Append
// is not safe for concurrent use on one directory — callers (the
// ingest server) serialize appends per container; concurrent READERS
// are fine, they pick the new generation up via Set.Refresh.
func Append(dir string, t *core.TWPP, opts WriteOptions) (*Manifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	return commit(dir, t, opts, man)
}

// commit seals t as the session after man's highest one, at man's next
// generation, and installs the extended manifest. On failure it
// removes the segment files it wrote and leaves man installed (or, for
// a new container, no manifest at all).
func commit(dir string, t *core.TWPP, opts WriteOptions, man *Manifest) (*Manifest, error) {
	plans := planSegments(t, opts.resolveBudget(t))
	if len(plans) == 0 {
		return nil, fmt.Errorf("segment: nothing to seal")
	}
	gen := man.Generation + 1
	var session uint64
	for _, e := range man.Segments {
		if e.Session > session {
			session = e.Session
		}
	}
	session++
	hasDCG := man.DCGIndex() >= 0

	var written []string
	fail := func(err error) (*Manifest, error) {
		for _, name := range written {
			os.Remove(filepath.Join(dir, name))
		}
		return nil, err
	}
	nm := &Manifest{Generation: gen}
	nm.Segments = append(nm.Segments, man.Segments...)
	for i, plan := range plans {
		// The session's own call graph rides in its first segment's
		// bytes either way; it becomes the container DCG only when no
		// live segment carries one.
		carryRoot := i == 0 && t.Root != nil
		seg := buildSegmentTWPP(t, plan, carryRoot)
		entry, err := sealSegment(dir, seg, gen, i, opts.Workers, session, carryRoot && !hasDCG)
		if err != nil {
			return fail(err)
		}
		written = append(written, entry.Name)
		nm.Segments = append(nm.Segments, entry)
	}
	if err := WriteManifest(dir, nm); err != nil {
		return fail(err)
	}
	return nm, nil
}
