package storage

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "data.bin")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// Every backend must agree byte for byte with the source data on full
// reads, offset reads, short tails, and past-the-end reads.
func TestBackendContract(t *testing.T) {
	data := make([]byte, 4097)
	for i := range data {
		data[i] = byte(i * 31)
	}
	path := writeTemp(t, data)

	for _, kind := range []Kind{KindFile, KindMmap, KindMemory} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			b, err := Open(path, kind)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if b.Size() != int64(len(data)) {
				t.Fatalf("Size = %d, want %d", b.Size(), len(data))
			}

			full := make([]byte, len(data))
			if _, err := b.ReadAt(full, 0); err != nil && err != io.EOF {
				t.Fatalf("full read: %v", err)
			}
			if !bytes.Equal(full, data) {
				t.Fatal("full read differs from source")
			}

			mid := make([]byte, 100)
			if _, err := b.ReadAt(mid, 1000); err != nil {
				t.Fatalf("mid read: %v", err)
			}
			if !bytes.Equal(mid, data[1000:1100]) {
				t.Fatal("mid read differs from source")
			}

			// Short tail: io.ReaderAt semantics require the available
			// bytes plus io.EOF.
			tail := make([]byte, 100)
			n, err := b.ReadAt(tail, int64(len(data))-10)
			if n != 10 || err != io.EOF {
				t.Fatalf("tail read: n=%d err=%v, want 10, io.EOF", n, err)
			}
			if !bytes.Equal(tail[:10], data[len(data)-10:]) {
				t.Fatal("tail bytes differ")
			}

			if n, err := b.ReadAt(make([]byte, 1), int64(len(data))); n != 0 || err != io.EOF {
				t.Fatalf("past-end read: n=%d err=%v, want 0, io.EOF", n, err)
			}

			// The sequential adapter must replay the identical stream.
			seq, err := io.ReadAll(Reader(b))
			if err != nil {
				t.Fatalf("sequential read: %v", err)
			}
			if !bytes.Equal(seq, data) {
				t.Fatal("sequential read differs from source")
			}
		})
	}
}

// Concurrent positioned reads on one backend must be race-free and
// correct (run under -race in ci).
func TestConcurrentReads(t *testing.T) {
	data := make([]byte, 1<<16)
	for i := range data {
		data[i] = byte(i)
	}
	path := writeTemp(t, data)
	for _, kind := range []Kind{KindFile, KindMmap, KindMemory} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			b, err := Open(path, kind)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					buf := make([]byte, 512)
					for i := 0; i < 64; i++ {
						off := int64((g*64 + i) * 512 % (len(data) - 512))
						if _, err := b.ReadAt(buf, off); err != nil {
							t.Errorf("read at %d: %v", off, err)
							return
						}
						if !bytes.Equal(buf, data[off:off+512]) {
							t.Errorf("read at %d differs", off)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestEmptyFileBackends(t *testing.T) {
	path := writeTemp(t, nil)
	for _, kind := range []Kind{KindFile, KindMmap, KindMemory} {
		b, err := Open(path, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if b.Size() != 0 {
			t.Errorf("%s: size %d", kind, b.Size())
		}
		if n, err := b.ReadAt(make([]byte, 1), 0); n != 0 || err != io.EOF {
			t.Errorf("%s: read on empty: n=%d err=%v", kind, n, err)
		}
		b.Close()
	}
}

func TestMmapCloseIdempotent(t *testing.T) {
	path := writeTemp(t, []byte("hello"))
	b, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
