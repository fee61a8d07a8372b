package pir

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"fmt"
	"io"
	"sync"

	"repro/internal/pagefile"
)

// XORPIR is the two-server information-theoretic PIR of Chor, Goldreich,
// Kushilevitz and Sudan [4]: the client sends a uniformly random subset S of
// page indices to server A and S Δ {target} to server B; each server
// returns the XOR of its selected pages; XORing the two replies yields the
// target page. As long as the servers do not collude, each sees a uniformly
// random subset, revealing nothing about the target — not even
// computationally bounded adversaries learn anything.
//
// Both logical replicas answer from the page file's own pages (see
// kernel.go), and a multi-page batch answers all k selectors in a single
// scan per server — k accumulators walking the file once — instead of k
// independent scans. Each batched query still samples its own fresh
// selector vector, so the servers' views stay uniform and mutually
// independent whether pages arrive one at a time or batched.
type XORPIR struct {
	rows     [][]byte // page i's bytes, exactly pageSize long (loadRows)
	numPages int
	pageSize int
	rng      io.Reader
	scratch  freeList[xorScratch] // sized for this store

	// Parallel scan machinery (see parallel.go): a persistent worker group
	// fans each replica scan across page segments when ScanWorkers() > 1.
	*scanGroup

	// lastMu guards the recorded-query buffers: reads are otherwise
	// stateless and run concurrently under a batch fan-out. The buffers
	// are reused across reads (the hot path records without allocating),
	// so observers go through LastQueries/LastBatchQueries, which copy.
	lastMu                 sync.Mutex
	lastBatchA, lastBatchB [][]byte

	// shareMu guards the share log: the selector vectors this store
	// answered via AnswerShares, in arrival order, kept only when a test
	// enabled it (the fleet Theorem-1 test chi-squares what each replica
	// daemon actually received over the wire).
	shareMu  sync.Mutex
	shareLog [][]byte
	shareCap int

	scanCounters
}

// xorScratch is the per-batch working set: selector vectors and
// accumulators for both servers, backed by two flat allocations, and the
// bucket table of the serial kernel (or of a parallel scan's first
// segment); the two replica passes run one after the other, so they share
// it. A steady-state batch reuses everything.
type xorScratch struct {
	selbuf       []byte
	selsA, selsB [][]byte
	accbuf       []byte
	accsA, accsB [][]byte
	buckets      bucketTable
}

// NewXORPIR serves the pages of src as two logical servers (the answer to
// any query XORs an arbitrary page subset, so each replica needs the full
// plaintext in memory). Both replicas fold the one set of rows loadRows
// takes from src, so a resident page file is held once, not copied.
func NewXORPIR(src pagefile.Reader) (*XORPIR, error) {
	rows, err := loadRows(src)
	if err != nil {
		return nil, err
	}
	n, ps := len(rows), src.PageSize()
	x := &XORPIR{
		rows:      rows,
		numPages:  n,
		pageSize:  ps,
		rng:       rand.Reader,
		scanGroup: newScanGroup(defaultScanWorkers(n*ps), n),
	}
	bindCleanup(x, x.scanGroup)
	return x, nil
}

// selBytes is the selector vector size: one bit per page.
func (x *XORPIR) selBytes() int { return (x.numPages + 7) / 8 }

// getScratch rents a scratch sized for a k-query batch.
func (x *XORPIR) getScratch(k int) *xorScratch {
	sc := x.scratch.get()
	if sc == nil {
		sc = &xorScratch{}
	}
	nbytes, ps := x.selBytes(), x.pageSize
	if cap(sc.selbuf) < 2*k*nbytes {
		sc.selbuf = make([]byte, 2*k*nbytes)
	}
	sc.selbuf = sc.selbuf[:2*k*nbytes]
	if cap(sc.accbuf) < 2*k*ps {
		sc.accbuf = make([]byte, 2*k*ps)
	}
	sc.accbuf = sc.accbuf[:2*k*ps]
	sc.selsA, sc.selsB = sliceRows(sc.selsA[:0], sc.selbuf[:k*nbytes], nbytes), sliceRows(sc.selsB[:0], sc.selbuf[k*nbytes:], nbytes)
	sc.accsA, sc.accsB = sliceRows(sc.accsA[:0], sc.accbuf[:k*ps], ps), sliceRows(sc.accsB[:0], sc.accbuf[k*ps:], ps)
	return sc
}

// sliceRows cuts flat into rows of n bytes, reusing dst's backing array.
func sliceRows(dst [][]byte, flat []byte, n int) [][]byte {
	for off := 0; off < len(flat); off += n {
		dst = append(dst, flat[off:off+n])
	}
	return dst
}

// ReadBatchInto implements Store: every batched read samples its own fresh
// query vectors against the immutable replicas (so the servers' views stay
// independent and uniform), and the whole batch is answered with one scan
// of each replica — k accumulators per scan rather than k scans. With
// pooled scratch inside the store, a steady-state batch allocates nothing
// beyond what the cryptographic randomness source needs.
func (x *XORPIR) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	if len(dst) != len(pages) {
		return fmt.Errorf("pir: %d buffers for %d pages", len(dst), len(pages))
	}
	for _, p := range pages {
		if p < 0 || p >= x.numPages {
			return fmt.Errorf("pir: page %d of %d", p, x.numPages)
		}
	}
	if len(pages) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	k, nbytes := len(pages), x.selBytes()
	sc := x.getScratch(k)
	defer x.scratch.put(sc)

	// One draw covers every query's server-A vector: disjoint stretches of
	// a uniform stream are mutually independent, so per-query independence
	// is preserved. Trailing bits beyond numPages are masked so the two
	// server views stay comparable bit for bit.
	if _, err := io.ReadFull(x.rng, sc.selbuf[:k*nbytes]); err != nil {
		return err
	}
	mask := byte(0xFF)
	if rem := x.numPages % 8; rem != 0 {
		mask = byte(1<<rem) - 1
	}
	for j, p := range pages {
		selA, selB := sc.selsA[j], sc.selsB[j]
		selA[nbytes-1] &= mask
		copy(selB, selA)
		selB[p/8] ^= 1 << (p % 8)
	}
	x.recordQueries(sc.selsA, sc.selsB)

	// One scan per replica answers the whole batch. The ctx check between
	// the two scans is the only read boundary a single-scan batch has.
	// With scan workers configured, each replica pass fans out across the
	// worker group — same pass count, same pages touched, answers
	// byte-identical to the serial kernel (XOR is associative).
	clear(sc.accbuf)
	nw := x.ScanWorkers()
	x.scan(sc.selsA, sc.accsA, &sc.buckets, nw)
	if err := ctx.Err(); err != nil {
		return err
	}
	x.scan(sc.selsB, sc.accsB, &sc.buckets, nw)
	// Two full-file passes (one per replica) answered the whole batch,
	// whatever its size — the quantity the amortization ratio tracks.
	x.recordScan(2*uint64(x.numPages), 2)
	for j := range pages {
		subtle.XORBytes(dst[j][:x.pageSize], sc.accsA[j], sc.accsB[j])
	}
	return nil
}

// scan is one full pass over the rows answering sels into the caller-zeroed
// accs: the serial kernel, or a segmented fan-out when nw > 1.
func (x *XORPIR) scan(sels, accs [][]byte, bt *bucketTable, nw int) {
	if nw > 1 {
		x.answerAllParallel(x.rows, sels, accs, bt, nw)
	} else {
		answerAll(x.rows, sels, accs, bt)
	}
}

// recordQueries snapshots the servers' views for the privacy tests,
// reusing the retained buffers so steady-state recording allocates nothing.
func (x *XORPIR) recordQueries(selsA, selsB [][]byte) {
	x.lastMu.Lock()
	defer x.lastMu.Unlock()
	for len(x.lastBatchA) < len(selsA) {
		x.lastBatchA = append(x.lastBatchA, nil)
		x.lastBatchB = append(x.lastBatchB, nil)
	}
	x.lastBatchA, x.lastBatchB = x.lastBatchA[:len(selsA)], x.lastBatchB[:len(selsB)]
	for j := range selsA {
		x.lastBatchA[j] = append(x.lastBatchA[j][:0], selsA[j]...)
		x.lastBatchB[j] = append(x.lastBatchB[j][:0], selsB[j]...)
	}
}

// LastQueries returns copies of the query vectors the two servers saw for
// the most recent read (for a batch, its last query). Test observability:
// the privacy tests verify the views are uniform and differ only at the
// target. Nil before the first read.
func (x *XORPIR) LastQueries() (a, b []byte) {
	x.lastMu.Lock()
	defer x.lastMu.Unlock()
	last := len(x.lastBatchA) - 1
	if last < 0 {
		return nil, nil
	}
	return append([]byte(nil), x.lastBatchA[last]...), append([]byte(nil), x.lastBatchB[last]...)
}

// LastBatchQueries returns copies of the per-query selector vectors the two
// servers saw in the most recent batch, in request order. Test
// observability, like LastQueryA/B.
func (x *XORPIR) LastBatchQueries() (a, b [][]byte) {
	x.lastMu.Lock()
	defer x.lastMu.Unlock()
	a = make([][]byte, len(x.lastBatchA))
	b = make([][]byte, len(x.lastBatchB))
	for j := range x.lastBatchA {
		a[j] = append([]byte(nil), x.lastBatchA[j]...)
		b[j] = append([]byte(nil), x.lastBatchB[j]...)
	}
	return a, b
}

// SelectorBytes implements ShareServer: one bit per page, whole bytes.
func (x *XORPIR) SelectorBytes() int { return x.selBytes() }

// AnswerShares implements ShareServer: one scan with k accumulators
// answers all k client-supplied selectors. This is the replica half of
// fleet mode — the store never sees the companion share, never
// reconstructs a page, and performs half the work of ReadBatchInto (which
// scans once per logical server). Bits beyond numPages select nothing:
// the kernel walks only the numPages real rows.
func (x *XORPIR) AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error {
	if len(dst) != len(sels) {
		return fmt.Errorf("pir: %d buffers for %d selectors", len(dst), len(sels))
	}
	nbytes := x.selBytes()
	for i, sel := range sels {
		if len(sel) != nbytes {
			return fmt.Errorf("pir: selector %d is %d bytes, want %d", i, len(sel), nbytes)
		}
	}
	if len(sels) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	k := len(sels)
	sc := x.getScratch(k)
	defer x.scratch.put(sc)
	accs := sc.accsA
	clear(sc.accbuf[:k*x.pageSize])
	x.scan(sels, accs, &sc.buckets, x.ScanWorkers())
	// One full-file pass, whatever the batch size.
	x.recordScan(uint64(x.numPages), 1)
	x.logShares(sels)
	for j := range sels {
		copy(dst[j][:x.pageSize], accs[j])
	}
	return nil
}

// EnableShareLog retains the most recent n selector vectors AnswerShares
// received (0 disables and clears). Test observability for the fleet
// privacy tests; off by default so serving replicas retain nothing.
func (x *XORPIR) EnableShareLog(n int) {
	x.shareMu.Lock()
	defer x.shareMu.Unlock()
	x.shareCap = n
	if n == 0 {
		x.shareLog = nil
	}
}

func (x *XORPIR) logShares(sels [][]byte) {
	x.shareMu.Lock()
	defer x.shareMu.Unlock()
	if x.shareCap == 0 {
		return
	}
	for _, sel := range sels {
		x.shareLog = append(x.shareLog, append([]byte(nil), sel...))
	}
	if drop := len(x.shareLog) - x.shareCap; drop > 0 {
		x.shareLog = append(x.shareLog[:0], x.shareLog[drop:]...)
	}
}

// ShareLog returns copies of the retained selector vectors, oldest first.
func (x *XORPIR) ShareLog() [][]byte {
	x.shareMu.Lock()
	defer x.shareMu.Unlock()
	out := make([][]byte, len(x.shareLog))
	for i, sel := range x.shareLog {
		out[i] = append([]byte(nil), sel...)
	}
	return out
}

// Caps implements Store: reads share only the immutable rows (plus
// mutex-guarded test observability), and a batch costs one scan per replica
// regardless of size, so the serving layer must not split it.
func (x *XORPIR) Caps() Caps { return Caps{Concurrent: true, SingleScan: true} }

// NumPages implements Store.
func (x *XORPIR) NumPages() int { return x.numPages }

// PageSize implements Store.
func (x *XORPIR) PageSize() int { return x.pageSize }
