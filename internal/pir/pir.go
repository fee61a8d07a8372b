// Package pir provides the private information retrieval building blocks of
// §2.2 and §3.2. The paper's schemes treat PIR as a black box with proven
// security guarantees; this package supplies that box as one contract,
// Store, with six implementations:
//
//   - Plain: no privacy at all — reads delegate to the page file. The
//     experiments use it and simulate PIR timing analytically, as the paper
//     does.
//   - SqrtORAM: a square-root ORAM (Goldreich) over AES-CTR-encrypted pages,
//     the functional stand-in for the hardware-aided protocol of Williams &
//     Sion [36] that the paper deploys on the IBM 4764 SCP. Its physical
//     access pattern is provably independent of the logical one, which the
//     tests verify empirically.
//   - PyramidORAM: the hierarchical ORAM that protocol descends from, with
//     its cost shape (one bucket per level per read).
//   - ShardedORAM: K independently locked SqrtORAMs striped over the pages,
//     so concurrent reads proceed in parallel at the price of revealing
//     which shard served each read.
//   - XORPIR: the classic two-server information-theoretic PIR of Chor,
//     Goldreich, Kushilevitz & Sudan [4].
//   - KOPIR: single-server computational PIR from the quadratic residuosity
//     assumption (Kushilevitz–Ostrovsky), built on math/big.
//
// Every store reads through ReadBatchInto and states its routing facts in
// Caps; the serving layer (lbs.Server) needs nothing else. XORPIR also
// implements ShareServer, the server-only face of two-server PIR that
// fleet replicas answer through — the one optional interface.
//
// Timing in the experiments comes from costmodel (the paper simulates the
// SCP too); these implementations establish that the oblivious-retrieval
// layer is real, not assumed.
package pir

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pagefile"
)

// Store is the PIR contract the schemes and the serving layer program
// against: retrieve pages by index, with the backing server(s) learning
// nothing about the indices.
type Store interface {
	// ReadBatchInto writes the content of pages[i] into dst[i] (at least
	// PageSize bytes each); len(dst) must equal len(pages), and it fails on
	// the first page error. ctx is checked at read boundaries — between
	// page retrievals, or between the passes of a single-scan store, never
	// inside one — so a cancelled batch stops promptly but each read that
	// started runs to completion: the serving layer records fetches
	// all-or-nothing, keeping a cancelled query's server-visible trace a
	// prefix of a full one. A batch runs on the calling goroutine; the only
	// concurrency a store adds is ShareServer's scan workers, whose width
	// the serving layer sets and charges against its pool.
	ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error
	// NumPages returns the logical file length. Public information.
	NumPages() int
	// PageSize returns the page size in bytes. Public information.
	PageSize() int
	// ScanStats returns the cumulative server-side work since construction:
	// the pages-equivalent work performed (pages, page slots, or full-file
	// passes expressed in pages) and the number of server passes (scans)
	// that performed it. Both are functions of the number and shape of the
	// batches answered (and, for the ORAMs, of the read count driving
	// reshuffles), never of which pages were requested, so exporting them
	// is Theorem-1-clean by construction; pages scanned per page served is
	// the headline efficiency metric of the single-scan path.
	ScanStats() (pagesScanned, scans uint64)
	// Caps reports how the serving layer may route reads to the store.
	Caps() Caps
}

// Caps are a store's routing facts, fixed at construction.
type Caps struct {
	// Concurrent marks stores whose ReadBatchInto is safe for concurrent
	// use, so the serving layer may run several batches at once and split
	// one across its worker pool. Plain, XORPIR and KOPIR read immutable
	// state (XORPIR's test-visible last-query fields are mutex-guarded);
	// ShardedORAM locks per shard. SqrtORAM and PyramidORAM are one
	// stateful structure each: the serving layer serializes their reads
	// behind a per-store lock.
	Concurrent bool
	// SingleScan marks stores whose ReadBatchInto answers every requested
	// page in ONE pass over the whole file — k accumulators riding a single
	// scan (XORPIR) or k query vectors sharing each row walk (KOPIR).
	// Splitting such a batch multiplies full-file scans instead of dividing
	// work, so the serving layer keeps batches whole and merges them across
	// connections.
	SingleScan bool
}

// ShareServer is the server-only face of two-server XOR PIR: answering one
// half of a query from client-supplied selector bitvectors (one bit per
// page), and configuring the worker group that fans its full-file pass
// across cores. It is the server side of fleet mode: the client splits each
// query into two shares and sends each to a different replica process, so
// reconstruction happens only client-side. lbs.Server probes for it once,
// at host time, on the value its store factory returned.
type ShareServer interface {
	// SelectorBytes returns the required selector length: one bit per page,
	// rounded up to whole bytes. Public information.
	SelectorBytes() int
	// AnswerShares writes, for each selector sels[i], the XOR of the
	// selected pages into dst[i] (PageSize bytes each) — one scan with k
	// accumulators, half the work of ReadBatchInto, which scans once per
	// logical server. Bits beyond NumPages are ignored. Safe for concurrent
	// use.
	AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error
	// SetScanWorkers sets the scan worker-group width and returns the
	// effective width one scan will use. n <= 0 restores the
	// GOMAXPROCS-and-size-aware default; n == 1 forces the serial kernel;
	// n > 1 is capped only by the page count. Not synchronized with
	// in-flight reads: call before serving, as lbs does.
	SetScanWorkers(n int) int
	// SetScanObserver installs fn to receive the wall-clock duration of
	// every segment folded by a parallel scan (nil removes it). The
	// observation count per scan equals the scan-worker width — a function
	// of configuration, never of page contents.
	SetScanObserver(fn func(segment time.Duration))
}

// readEach is the ReadBatchInto of stores that retrieve one page at a time:
// pages in request order, ctx checked before each read — the read
// boundaries — so a cancelled batch stops promptly while every page read
// that started runs to completion.
func readEach(ctx context.Context, pages []int, dst [][]byte, read func(page int) ([]byte, error)) error {
	if len(dst) != len(pages) {
		return fmt.Errorf("pir: %d buffers for %d pages", len(dst), len(pages))
	}
	for i, p := range pages {
		if err := ctx.Err(); err != nil {
			return err
		}
		data, err := read(p)
		if err != nil {
			return err
		}
		copy(dst[i], data)
	}
	return nil
}

// materialize pulls every page of a source into memory. The cryptographic
// stores need the full plaintext up front — the ORAMs to encrypt and permute
// it, XOR/KO-PIR to answer queries that by construction touch every page —
// so only Plain serves straight off the (possibly disk-backed) source.
func materialize(src pagefile.Reader) ([][]byte, error) {
	pages := make([][]byte, src.NumPages())
	for i := range pages {
		p, err := src.Page(i)
		if err != nil {
			return nil, err
		}
		pages[i] = p
	}
	return pages, nil
}

// Plain is a non-private Store: reads delegate directly to the underlying
// page source (an in-memory build file or a disk-backed container file).
// The obfuscation baseline and build-time verification use it; it also
// demonstrates that the schemes are agnostic to the PIR implementation
// behind the interface.
type Plain struct {
	src pagefile.Reader
	scanCounters
}

// NewPlain wraps a page source in a Plain store (use pagefile.SlicePages
// for a raw in-memory page slice).
func NewPlain(src pagefile.Reader) *Plain { return &Plain{src: src} }

// page returns page i. Safe for concurrent use: Reader implementations are
// concurrency-safe and the page set is immutable.
func (p *Plain) page(i int) ([]byte, error) {
	if i < 0 || i >= p.src.NumPages() {
		return nil, fmt.Errorf("pir: page %d of %d", i, p.src.NumPages())
	}
	p.recordScan(1, 1) // a plain read touches exactly the requested page
	return p.src.Page(i)
}

// ReadBatchInto implements Store: page contents are copied into the
// caller's buffers, one page at a time.
func (p *Plain) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	return readEach(ctx, pages, dst, p.page)
}

// Caps implements Store: plain reads touch no mutable state.
func (p *Plain) Caps() Caps { return Caps{Concurrent: true} }

// NumPages returns the page count.
func (p *Plain) NumPages() int { return p.src.NumPages() }

// PageSize returns the page size.
func (p *Plain) PageSize() int { return p.src.PageSize() }

var (
	_ Store       = (*Plain)(nil)
	_ Store       = (*SqrtORAM)(nil)
	_ Store       = (*PyramidORAM)(nil)
	_ Store       = (*ShardedORAM)(nil)
	_ Store       = (*XORPIR)(nil)
	_ Store       = (*KOPIR)(nil)
	_ ShareServer = (*XORPIR)(nil)
)
