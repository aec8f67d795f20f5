package trace

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"twpp/internal/cfg"
	"twpp/internal/sequitur"
)

// eventLog is an EventSink that records events one block at a time, so
// logs compare equal however the blocks were grouped into runs. It
// also checks the run contract: no empty run, and no two runs in a row
// within one Feed call (runs are maximal).
type eventLog struct {
	t      *testing.T
	events []string
	// fed is set before each Feed call; lastRun reports whether the
	// previous event was a run delivered in the current Feed call.
	fed, lastRun bool
}

func (l *eventLog) EnterCall(f cfg.FuncID) {
	l.events = append(l.events, fmt.Sprint("enter ", f))
	l.fed, l.lastRun = false, false
}

func (l *eventLog) Blocks(ids []cfg.BlockID) {
	if len(ids) == 0 {
		l.t.Error("empty block run")
	}
	if l.lastRun && !l.fed {
		l.t.Error("one Feed call split a block run")
	}
	for _, id := range ids {
		l.events = append(l.events, fmt.Sprint("block ", id))
	}
	l.fed, l.lastRun = false, true
}

func (l *eventLog) ExitCall() {
	l.events = append(l.events, "exit")
	l.fed, l.lastRun = false, false
}

// demuxSymbols maps fuzz bytes onto the WPP symbol vocabulary: mostly
// blocks (including ids past the ENTER range), with ENTERs for
// declared and undeclared functions and EXITs mixed in.
func demuxSymbols(data []byte) []uint32 {
	syms := make([]uint32, len(data))
	for i, b := range data {
		switch b % 8 {
		case 0:
			syms[i] = sequitur.ExitMarker
		case 1:
			syms[i] = sequitur.EnterMarker(int(b>>3) % 5)
		case 2:
			syms[i] = sequitur.RuleBase + uint32(b)
		default:
			syms[i] = 1 + uint32(b>>3)
		}
	}
	return syms
}

// FuzzDemuxRuns checks that feeding a stream as slices of random
// lengths matches feeding it one symbol at a time: the same events
// (and so the same per-call block sequences) before any error, the
// same error kind, position and context, and the same count of
// accepted symbols.
func FuzzDemuxRuns(f *testing.F) {
	f.Add([]byte{1, 3, 4, 5, 9, 11, 12, 0, 6, 0}, []byte{3, 1, 0, 7})
	f.Add([]byte{1, 3, 4, 5, 33, 6, 7, 0, 0}, []byte{2, 9})    // unknown function after a run
	f.Add([]byte{1, 3, 0, 1, 4}, []byte{1, 1, 1, 1, 1})        // second root
	f.Add([]byte{1, 3, 4, 0, 0, 5}, []byte{5})                 // exit underflow
	f.Add([]byte{3, 1, 4}, []byte{0, 2})                       // block outside any call
	f.Add([]byte{1, 9, 3, 4, 10, 5, 6, 0, 7, 0}, []byte{4, 4}) // nested, unclosed
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		syms := demuxSymbols(data)

		one := &eventLog{t: t}
		d1 := &Demux{Sink: one, NumFuncs: 4}
		var err1 error
		for _, s := range syms {
			one.fed = true
			if err1 = d1.Feed(s); err1 != nil {
				break
			}
		}

		runs := &eventLog{t: t}
		d2 := &Demux{Sink: runs, NumFuncs: 4}
		err2 := d2.Feed() // an empty slice is a no-op
		for i, rest := 0, syms; len(rest) > 0 && err2 == nil; i++ {
			n := len(rest)
			if len(cuts) > 0 {
				n = min(n, 1+int(cuts[i%len(cuts)]%16))
			}
			runs.fed = true
			err2 = d2.Feed(rest[:n]...)
			rest = rest[n:]
		}

		if !reflect.DeepEqual(one.events, runs.events) {
			t.Fatalf("events differ:\none at a time %v\nin slices    %v", one.events, runs.events)
		}
		if d1.Accepted() != d2.Accepted() {
			t.Fatalf("accepted %d one at a time, %d in slices", d1.Accepted(), d2.Accepted())
		}
		if err1 == nil {
			err1, err2 = d1.Close(), d2.Close()
		}
		var se1, se2 *StreamError
		if errors.As(err1, &se1) != errors.As(err2, &se2) || (se1 != nil && *se1 != *se2) {
			t.Fatalf("errors differ: one at a time %v, in slices %v", err1, err2)
		}
	})
}
