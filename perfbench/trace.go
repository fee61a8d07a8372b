package main

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pir"
)

// span is one timed call across a layer boundary. Spans of one query share
// its query ID; parent is the index of the enclosing span in the query's
// span list, -1 for the root.
type span struct {
	name       string
	qid        int64
	parent     int
	start, end time.Duration // offsets from the recorder's epoch
	file       string        // read spans: the file read
	pages      int           // read spans: pages in the batch
}

func (s span) dur() time.Duration { return s.end - s.start }

// queryRec records the spans of one query. A query is driven by one
// goroutine at a time, so the recorder needs no lock.
type queryRec struct {
	epoch time.Time
	qid   int64
	spans []span
	round int // open round span, -1 before the first round
}

func newQueryRec(epoch time.Time, qid int64) *queryRec {
	return &queryRec{epoch: epoch, qid: qid, round: -1}
}

func (r *queryRec) begin(name string, parent int) int {
	r.spans = append(r.spans, span{name: name, qid: r.qid, parent: parent, start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

func (r *queryRec) end(i int) { r.spans[i].end = time.Since(r.epoch) }

// closeRound ends the open round span, if any.
func (r *queryRec) closeRound() {
	if r.round >= 0 {
		r.end(r.round)
		r.round = -1
	}
}

// interval is a half-open time range.
type interval struct{ start, end time.Duration }

// selfTime is a span's duration minus the part of it that its children
// cover. Children may overlap each other (concurrent calls) or stick out
// of the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// session is a query session on a remote deployment — one daemon's
// (client.Query) or a fleet's (fleet.Query). Scheme protocol code drives
// it as an lbs.Backend; the caller settles it with End or Cancel.
type session interface {
	lbs.Backend
	lbs.Service
	End(ctx context.Context) (string, error)
	Cancel(reason uint8)
}

// tracedBackend decorates a session's lbs.Backend with spans: header,
// round (from one NextRound to the next, or to the end of the query) and
// read (one per ReadPages call, with its file and page count). Connect
// hands the scheme a Conn over the decorator, so every backend call the
// protocol makes passes through it.
type tracedBackend struct {
	inner session
	rec   *queryRec
	root  int
}

func (b *tracedBackend) Connect(ctx context.Context) *lbs.Conn { return lbs.NewConn(ctx, b) }

func (b *tracedBackend) HeaderBytes(ctx context.Context) ([]byte, error) {
	i := b.rec.begin("header", b.root)
	h, err := b.inner.HeaderBytes(ctx)
	b.rec.end(i)
	return h, err
}

func (b *tracedBackend) FileInfo(name string) (lbs.FileInfo, error) { return b.inner.FileInfo(name) }

func (b *tracedBackend) NextRound(ctx context.Context) error {
	b.rec.closeRound()
	b.rec.round = b.rec.begin("round", b.root)
	return b.inner.NextRound(ctx)
}

func (b *tracedBackend) ReadPages(ctx context.Context, file string, pages []int) ([][]byte, error) {
	parent := b.rec.round
	if parent < 0 {
		parent = b.root
	}
	i := b.rec.begin("read", parent)
	b.rec.spans[i].file, b.rec.spans[i].pages = file, len(pages)
	out, err := b.inner.ReadPages(ctx, file, pages)
	b.rec.end(i)
	return out, err
}

func (b *tracedBackend) Model() costmodel.Params { return b.inner.Model() }

// kernelTimer sums the wall time of PIR store scans.
type kernelTimer struct{ nanos atomic.Int64 }

func (k *kernelTimer) add(d time.Duration) { k.nanos.Add(int64(d)) }

// timedXOR decorates an XOR PIR store, timing the two calls the daemon
// scans through: ReadBatchInto (single-server reads, via the scan
// scheduler) and AnswerShares (fleet replica shares). Embedding the store
// keeps every capability the host probes for (single-scan batching,
// parallel scan, share answering), so serving routes are unchanged.
type timedXOR struct {
	*pir.XORPIR
	t *kernelTimer
}

func (s *timedXOR) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	t0 := time.Now()
	err := s.XORPIR.ReadBatchInto(ctx, pages, dst)
	s.t.add(time.Since(t0))
	return err
}

func (s *timedXOR) AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error {
	t0 := time.Now()
	err := s.XORPIR.AnswerShares(ctx, sels, dst)
	s.t.add(time.Since(t0))
	return err
}
