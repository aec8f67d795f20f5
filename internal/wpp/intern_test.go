package wpp

import (
	"math/rand"
	"slices"
	"testing"
)

// TestInternerCollision forces distinct traces onto one hash and checks
// that the table's verified-equality lookup keeps them apart:
// collisions may share a probe chain but can never merge distinct
// contents or split duplicates.
func TestInternerCollision(t *testing.T) {
	a := PathTrace{1, 2, 3}
	b := PathTrace{4, 5, 6}
	store := []PathTrace{}
	var tab Table
	const h = 0xdeadbeef // same forced hash for every insert

	add := func(tr PathTrace) int {
		idx, ok := tab.Find(h, func(i int) bool { return slices.Equal(store[i], tr) })
		if !ok {
			idx = len(store)
			store = append(store, tr)
			tab.Insert(h, idx)
		}
		return idx
	}

	ia := add(a)
	ib := add(b)
	if ia == ib {
		t.Fatalf("colliding distinct traces merged: both got index %d", ia)
	}
	if got := add(append(PathTrace(nil), a...)); got != ia {
		t.Errorf("duplicate of a interned at %d, want %d", got, ia)
	}
	if got := add(append(PathTrace(nil), b...)); got != ib {
		t.Errorf("duplicate of b interned at %d, want %d", got, ib)
	}
	if len(store) != 2 {
		t.Errorf("store holds %d traces, want 2", len(store))
	}
}

// TestHashTraceBasics pins the identity properties trace interning
// relies on: content decides a trace's unique index, nil and empty
// agree, a prefix is a trace of its own, and Mix64 folds a value as
// its low word and then its high word.
func TestHashTraceBasics(t *testing.T) {
	var set traceSet
	a := PathTrace{1, 2, 2, 2, 10}
	for _, tc := range []struct {
		tr    PathTrace
		idx   int
		added bool
	}{
		{nil, 0, true},
		{PathTrace{}, 0, false},
		{a, 1, true},
		{append(PathTrace(nil), a...), 1, false},
		{a[:4], 2, true},
	} {
		if idx, added := set.intern(tc.tr); idx != tc.idx || added != tc.added {
			t.Errorf("intern(%v) = %d, %v; want %d, %v", tc.tr, idx, added, tc.idx, tc.added)
		}
	}
	const x = 0x0123456789abcdef
	if got, want := Mix64(HashStart, x), Mix(Mix(HashStart, 0x89abcdef), 0x01234567); got != want {
		t.Errorf("Mix64 = %#x, want %#x", got, want)
	}
}

// fibInverse is the multiplicative inverse of fibHash modulo 2^64, by
// Newton's iteration (each step doubles the correct low bits).
var fibInverse = func() uint64 {
	x := uint64(fibHash)
	for range 6 {
		x *= 2 - fibHash*x
	}
	return x
}()

// tableKeyHashes maps a key to its hash under each collision pattern
// TestTable and FuzzTable drive the table with.
var tableKeyHashes = []struct {
	name string
	hash func(k uint64) uint64
}{
	// Every key on one hash: each Find walks the whole probe chain and
	// only the equality check tells entries apart.
	{"one hash", func(uint64) uint64 { return 0x5eed }},
	// Hashes equal modulo any table size up to 2^40.
	{"equal mod size", func(k uint64) uint64 { return k<<40 | 3 }},
	// Distinct hashes whose home slot is 0 at every table size: the
	// slot is the top bits of h*fibHash, and here h*fibHash = k.
	{"one home slot", func(k uint64) uint64 { return k * fibInverse }},
	{"fnv", func(k uint64) uint64 { return Mix64(HashStart, k) }},
}

// tableRef drives a Table and a map reference side by side: keys are
// interned into a list, and the table must find every key at the
// position the map recorded.
type tableRef struct {
	t    *testing.T
	tab  Table
	hash func(uint64) uint64
	keys []uint64       // position -> key
	ref  map[uint64]int // key -> position
}

func newTableRef(t *testing.T, hash func(uint64) uint64) *tableRef {
	return &tableRef{t: t, hash: hash, ref: map[uint64]int{}}
}

func (r *tableRef) find(k uint64) (int, bool) {
	return r.tab.Find(r.hash(k), func(pos int) bool { return r.keys[pos] == k })
}

// intern finds k, or inserts it at the next position, checking the
// table's answer against the reference.
func (r *tableRef) intern(k uint64) {
	r.t.Helper()
	pos, ok := r.find(k)
	want, wantOK := r.ref[k]
	if ok != wantOK || (ok && pos != want) {
		r.t.Fatalf("Find(%d) = %d, %v; want %d, %v", k, pos, ok, want, wantOK)
	}
	if !ok {
		r.ref[k] = len(r.keys)
		r.tab.Insert(r.hash(k), len(r.keys))
		r.keys = append(r.keys, k)
	}
}

// check finds every key at its recorded position.
func (r *tableRef) check() {
	r.t.Helper()
	for k, want := range r.ref {
		if pos, ok := r.find(k); !ok || pos != want {
			r.t.Fatalf("after %d inserts: Find(%d) = %d, %v; want %d", len(r.keys), k, pos, ok, want)
		}
	}
}

func (r *tableRef) reset(n int) {
	r.tab.Reset(n)
	r.keys, r.ref = r.keys[:0], map[uint64]int{}
}

// TestTable checks Table against a map reference under forced
// collisions, through several doublings from the zero value, with the
// positions checked after every insert, and across a Reset to a
// smaller and then a larger size.
func TestTable(t *testing.T) {
	for _, kh := range tableKeyHashes {
		t.Run(kh.name, func(t *testing.T) {
			r := newTableRef(t, kh.hash)
			const n = 300 // grows 8 -> 1024 slots: seven doublings
			for k := uint64(1); k <= n; k++ {
				r.intern(k)
				r.intern(k) // a duplicate is found, not inserted
				r.check()
			}
			if got := len(r.tab.slots); got != 1024 {
				t.Errorf("%d entries in %d slots, want 1024", n, got)
			}
			if _, ok := r.find(n + 1); ok {
				t.Errorf("Find of an absent key succeeded")
			}

			r.reset(5)
			if _, ok := r.find(1); ok {
				t.Fatalf("Find after Reset found a stale entry")
			}
			for k := uint64(1000); k < 1040; k++ { // grows past the reserved 5
				r.intern(k)
			}
			r.check()
			r.reset(600)
			if got := len(r.tab.slots); got != 2048 {
				t.Errorf("Reset(600) sized %d slots, want 2048", got)
			}
			for k := uint64(2000); k < 2600; k++ {
				r.intern(k)
			}
			r.check()
			if got := len(r.tab.slots); got != 2048 {
				t.Errorf("600 inserts after Reset(600) grew the table to %d slots", got)
			}
		})
	}
}

// A warm table reset within its storage allocates nothing, however
// many Find and Insert calls fill it up to the reserved size.
func TestTableZeroAllocs(t *testing.T) {
	var tab Table
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = rand.Uint64()
	}
	run := func() {
		tab.Reset(len(keys))
		for i, k := range keys {
			h := Mix64(HashStart, k)
			same := func(pos int) bool { return keys[pos] == k }
			if _, ok := tab.Find(h, same); !ok {
				tab.Insert(h, i)
			}
			if pos, ok := tab.Find(h, same); !ok || pos != i {
				t.Fatalf("key %d found at %d, %v", i, pos, ok)
			}
		}
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("warm Reset/Find/Insert allocated %.1f times per run, want 0", allocs)
	}
}

// FuzzTable decodes a collision pattern and a sequence of operations
// from the input and checks every answer against a map reference. The
// first byte picks the pattern; after it, 0xff n resets the table for
// n inserts and any other byte k interns key k.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 3, 2})
	f.Add([]byte{1, 5, 6, 0xff, 2, 5, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 1})
	f.Add([]byte{3, 9, 8, 0xff, 0, 9, 0xff, 40, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := newTableRef(t, tableKeyHashes[int(data[0])%len(tableKeyHashes)].hash)
		for i := 1; i < len(data); i++ {
			if data[i] == 0xff && i+1 < len(data) {
				i++
				r.reset(int(data[i]))
				continue
			}
			r.intern(uint64(data[i]))
		}
		r.check()
	})
}
