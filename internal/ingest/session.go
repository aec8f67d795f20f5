// The per-producer session state machine. It is factored over a plain
// io.ReadWriter so tests, the corruption sweep, and FuzzIngestFrame
// can drive it deterministically with in-memory byte streams; when the
// underlying stream is a net.Conn the server arms a fresh read
// deadline before every frame, turning producer silence into the
// idle-timeout path.

package ingest

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"time"

	"twpp/internal/cli"
	"twpp/internal/core"
	"twpp/internal/encoding"
	"twpp/internal/sequitur"
	"twpp/internal/trace"
)

// readDeadliner is the slice of net.Conn the session uses; in-memory
// test streams simply don't implement it.
type readDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// session holds one producer's in-flight state.
type session struct {
	srv   *Server
	rw    io.ReadWriter
	buf   []byte // reusable frame payload buffer
	hello *Hello
	sc    *core.StreamCompactor
	demux *trace.Demux
	syms  []uint32 // one EVENTS payload's decoded symbols, reused
	// events counts symbols accepted; bytes counts EVENTS payload
	// bytes, bounded by MaxSessionBytes.
	events uint64
	bytes  int64
	// finished records that the producer's FINISH frame was read, so
	// nothing it sent is left unread.
	finished bool
}

// run drives one session to its terminal outcome, which the server
// counts and then writes as the session's one RESULT frame.
func (ss *session) run(ctx context.Context) Result {
	for {
		if err := ctx.Err(); err != nil {
			return ss.reject(err)
		}
		ss.armDeadline()
		typ, payload, err := ReadFrame(ss.rw, ss.srv.opts.MaxFrameBytes, ss.buf)
		if err != nil {
			return ss.readFailed(err)
		}
		if cap(payload) > cap(ss.buf) {
			ss.buf = payload[:cap(payload)]
		}
		ss.srv.mFrames.Inc()
		switch typ {
		case FrameHello:
			if ss.hello != nil {
				return ss.reject(encoding.Errf(encoding.CodeCorrupt, 0, "ingest: duplicate HELLO"))
			}
			h, err := decodeHello(payload)
			if err != nil {
				return ss.reject(err)
			}
			ss.hello = &h
			ss.sc = core.NewStreamCompactor(h.Names)
			ss.demux = &trace.Demux{Sink: ss.sc, NumFuncs: len(h.Names)}
		case FrameEvents:
			if ss.hello == nil {
				return ss.reject(encoding.Errf(encoding.CodeCorrupt, 0, "ingest: EVENTS before HELLO"))
			}
			ss.bytes += int64(len(payload))
			ss.srv.mBytesIn.Add(uint64(len(payload)))
			if max := ss.srv.opts.MaxSessionBytes; max > 0 && ss.bytes > max {
				return ss.reject(encoding.Errf(encoding.CodeLimit, 0, "ingest: session exceeds %d event bytes", max))
			}
			if err := ss.feedEvents(payload); err != nil {
				return ss.reject(err)
			}
		case FrameFinish:
			ss.finished = true
			if ss.hello == nil {
				return ss.reject(encoding.Errf(encoding.CodeCorrupt, 0, "ingest: FINISH before HELLO"))
			}
			return ss.finish(ctx, "")
		default:
			return ss.reject(encoding.Errf(encoding.CodeCorrupt, 0, "ingest: unknown frame type %#x", typ))
		}
	}
}

// feedEvents decodes one EVENTS payload — whole uvarint symbols — and
// feeds them through the demux as one slice, mirroring the offline raw
// reader's validation exactly (symbol range check, empty-name-table
// strictness, then trace.Demux structure checks). The symbols before
// an invalid one are fed first, so a demux error among them wins, as
// it would symbol by symbol.
func (ss *session) feedEvents(payload []byte) error {
	c := encoding.NewCursor(payload)
	syms := ss.syms[:0]
	var bad error
	for !c.Done() {
		sym, err := c.Uvarint()
		if err != nil {
			bad = err
			break
		}
		if sym > math.MaxUint32 {
			bad = encoding.Errf(encoding.CodeCorrupt, int64(c.Pos()), "ingest: symbol %d out of range", sym)
			break
		}
		if _, ok := sequitur.IsEnter(uint32(sym)); ok && len(ss.hello.Names) == 0 {
			bad = &trace.StreamError{Kind: trace.StreamUnknownFunc, Pos: ss.demux.Accepted() + len(syms), Sym: uint32(sym)}
			break
		}
		syms = append(syms, uint32(sym))
	}
	ss.syms = syms
	err := ss.demux.Feed(syms...)
	accepted := uint64(ss.demux.Accepted())
	ss.srv.mEvents.Add(accepted - ss.events)
	ss.events = accepted
	if err != nil {
		return err
	}
	return bad
}

// finish closes the stream, seals the compacted session into the
// mount's container, and returns the sealed RESULT.
func (ss *session) finish(ctx context.Context, detail string) Result {
	if err := ss.demux.Close(); err != nil {
		return ss.reject(err)
	}
	sealed, err := ss.srv.seal(ctx, ss.hello.Mount, ss.sc)
	if err != nil {
		return ss.reject(err)
	}
	return Result{
		Status:       cli.ExitOK,
		Code:         cli.CodeName(cli.ExitOK),
		Detail:       detail,
		Session:      sealed.session,
		Generation:   sealed.generation,
		Segments:     sealed.segments,
		Events:       ss.events,
		Calls:        uint64(sealed.calls),
		UniqueTraces: uint64(sealed.uniqueTraces),
	}
}

// readFailed maps a frame-read failure to the session's outcome. A
// timeout on an armed deadline is the idle path: a producer that went
// quiet after a balanced stream still gets its session sealed (the
// paper's sessions end when the program exits — often without a polite
// FINISH); an unbalanced one is rejected. EOF before HELLO or
// mid-stream is a plain disconnect.
func (ss *session) readFailed(err error) Result {
	var ne net.Error
	idle := (errors.As(err, &ne) && ne.Timeout()) || errors.Is(err, os.ErrDeadlineExceeded)
	if idle && ss.hello != nil {
		if ss.demux.Close() == nil {
			return ss.finish(context.Background(), "sealed on idle timeout")
		}
		return ss.reject(encoding.Errf(encoding.CodeCorrupt, 0, "ingest: idle timeout with unbalanced stream"))
	}
	if idle {
		return ss.reject(encoding.Errf(encoding.CodeCorrupt, 0, "ingest: idle timeout before HELLO"))
	}
	// Disconnects and malformed frames: structured errors keep their
	// class; raw EOFs become truncation.
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		err = encoding.Errf(encoding.CodeTruncated, 0, "ingest: stream ended mid-session")
	}
	return ss.reject(err)
}

// reject returns a failure RESULT carrying err's structured class.
func (ss *session) reject(err error) Result {
	status := cli.ExitCode(err)
	return Result{
		Status: uint64(status),
		Code:   cli.CodeName(status),
		Detail: err.Error(),
		Events: ss.events,
	}
}

// armDeadline sets the per-frame read deadline when the stream
// supports one.
func (ss *session) armDeadline() {
	if d, ok := ss.rw.(readDeadliner); ok {
		d.SetReadDeadline(time.Now().Add(ss.srv.opts.IdleTimeout))
	}
}
