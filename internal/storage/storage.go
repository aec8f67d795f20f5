// Package storage abstracts how on-disk WPP containers are read. The
// reader stack above it (wppfile.CompactedFile, the decode cache,
// RawStreamReader, the server mount path) only ever needs positioned
// reads over an immutable byte range, so the whole contract is three
// methods: ReadAt, Size, Close.
//
// Three backends implement it:
//
//   - file: positioned pread on a shared *os.File descriptor — the
//     default, safe everywhere, one syscall per read;
//   - mmap: the file mapped read-only into the address space
//     (syscall.Mmap on linux; transparently falls back to the file
//     backend elsewhere), so hot-path extraction is a memcpy with no
//     syscall;
//   - memory: an in-memory byte slice, for tests, fixtures, and
//     serving images that were built or received without touching disk.
//
// All backends are safe for concurrent ReadAt use by any number of
// goroutines; Close must not race in-flight reads (callers above gate
// on their own closed flag, matching the CompactedFile contract).
package storage

import (
	"fmt"
	"io"
	"os"
)

// Backend is a read-only, randomly accessible byte container. ReadAt
// follows io.ReaderAt semantics: a read past the end returns the bytes
// available and io.EOF, and concurrent calls are safe.
type Backend interface {
	io.ReaderAt
	// Size reports the total byte length of the container.
	Size() int64
	// Close releases the backing resources. The backend must not be
	// used afterwards.
	Close() error
}

// Kind selects a Backend implementation when opening by path.
type Kind int

const (
	// KindFile reads through positioned I/O on an os.File (default).
	KindFile Kind = iota
	// KindMmap maps the file read-only into memory (linux; other
	// platforms silently get KindFile behaviour).
	KindMmap
	// KindMemory slurps the whole file into a byte slice at open.
	KindMemory
)

// String names the kind for flags, logs, and benchmark labels.
func (k Kind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindMmap:
		return "mmap"
	case KindMemory:
		return "memory"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Open opens path with the chosen backend kind.
func Open(path string, kind Kind) (Backend, error) {
	switch kind {
	case KindFile:
		return OpenFile(path)
	case KindMmap:
		return OpenMmap(path)
	case KindMemory:
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return FromBytes(data), nil
	default:
		return nil, fmt.Errorf("storage: unknown backend kind %d", int(kind))
	}
}

// OpenFile opens path as a positioned-read file backend.
func OpenFile(path string) (Backend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileBackend{f: f, size: st.Size()}, nil
}

// fileBackend reads through pread on a shared descriptor. os.File's
// ReadAt is already concurrency-safe (it never moves the file offset).
type fileBackend struct {
	f    *os.File
	size int64
}

func (b *fileBackend) ReadAt(p []byte, off int64) (int, error) { return b.f.ReadAt(p, off) }
func (b *fileBackend) Size() int64                             { return b.size }
func (b *fileBackend) Close() error                            { return b.f.Close() }

// FromBytes wraps data as an in-memory backend. The backend aliases
// data; callers must not mutate it afterwards.
func FromBytes(data []byte) Backend {
	return &memBackend{data: data}
}

type memBackend struct {
	data []byte
}

func (b *memBackend) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("storage: negative offset %d", off)
	}
	if off >= int64(len(b.data)) {
		return 0, io.EOF
	}
	n := copy(p, b.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (b *memBackend) Size() int64  { return int64(len(b.data)) }
func (b *memBackend) Close() error { return nil }

// Reader adapts a Backend to a sequential io.Reader over its full
// range, for streaming consumers (RawStreamReader).
func Reader(b Backend) *io.SectionReader {
	return io.NewSectionReader(b, 0, b.Size())
}
