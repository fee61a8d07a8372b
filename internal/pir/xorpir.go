package pir

import (
	"context"
	"crypto/rand"
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
// Both replicas answer from a contiguous word arena (see kernel.go) with
// the word-wide XOR kernel, and a multi-page ReadBatch answers all k
// selectors in a single scan per server — k accumulators walking the file
// once — instead of k independent scans. Each batched query still samples
// its own fresh selector vector, so the servers' views stay uniform and
// mutually independent whether pages arrive one at a time or batched.
type XORPIR struct {
	a, b     *xorServer
	numPages int
	pageSize int
	rng      io.Reader
	scratch  freeList[xorScratch] // sized for this store

	// Parallel scan machinery (see parallel.go): a persistent worker group
	// fans each replica scan across page segments when ScanWorkers() > 1.
	*scanGroup
	taskPool freeList[arenaTask]

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

// xorServer is one non-colluding replica holding the full plaintext file
// flattened into word lanes.
type xorServer struct {
	arena *wordArena
}

// xorScratch is the per-batch working set: selector vectors and word
// accumulators for both servers, backed by two flat allocations, and the
// bucket table of the serial kernel (or of a parallel scan's first
// segment); the two replica passes run one after the other, so they share
// it. A steady-state batch reuses everything.
type xorScratch struct {
	selbuf       []byte
	selsA, selsB [][]byte
	accbuf       []uint64
	accsA, accsB [][]uint64
	buckets      bucketTable
}

// NewXORPIR replicates the pages of src onto two logical servers (the
// answer to any query XORs an arbitrary page subset, so both replicas hold
// the full plaintext in memory).
func NewXORPIR(src pagefile.Reader) (*XORPIR, error) {
	arena, err := newWordArena(src)
	if err != nil {
		return nil, err
	}
	x := &XORPIR{
		a:         &xorServer{arena: arena},
		b:         &xorServer{arena: arena},
		numPages:  arena.numPages,
		pageSize:  arena.pageSize,
		rng:       rand.Reader,
		scanGroup: newScanGroup(defaultArenaWorkers(len(arena.words)), arena.numPages),
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
	nbytes, wpp := x.selBytes(), x.a.arena.wpp
	if cap(sc.selbuf) < 2*k*nbytes {
		sc.selbuf = make([]byte, 2*k*nbytes)
	}
	sc.selbuf = sc.selbuf[:2*k*nbytes]
	if cap(sc.accbuf) < 2*k*wpp {
		sc.accbuf = make([]uint64, 2*k*wpp)
	}
	sc.accbuf = sc.accbuf[:2*k*wpp]
	sc.selsA, sc.selsB = sliceRows(sc.selsA[:0], sc.selbuf[:k*nbytes], nbytes), sliceRows(sc.selsB[:0], sc.selbuf[k*nbytes:], nbytes)
	sc.accsA, sc.accsB = sliceWordRows(sc.accsA[:0], sc.accbuf[:k*wpp], wpp), sliceWordRows(sc.accsB[:0], sc.accbuf[k*wpp:], wpp)
	return sc
}

// sliceRows cuts flat into rows of n bytes, reusing dst's backing array.
func sliceRows(dst [][]byte, flat []byte, n int) [][]byte {
	for off := 0; off < len(flat); off += n {
		dst = append(dst, flat[off:off+n])
	}
	return dst
}

// sliceWordRows cuts flat into rows of n words, reusing dst's backing array.
func sliceWordRows(dst [][]uint64, flat []uint64, n int) [][]uint64 {
	for off := 0; off < len(flat); off += n {
		dst = append(dst, flat[off:off+n])
	}
	return dst
}

// Read implements Store.
func (x *XORPIR) Read(page int) ([]byte, error) {
	out, err := x.ReadBatch(context.Background(), []int{page})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ReadBatch implements BatchStore: every batched read samples its own fresh
// query vectors against the immutable replicas (so the servers' views stay
// independent and uniform), and the whole batch is answered with one scan
// of each replica — k accumulators per scan rather than k scans.
func (x *XORPIR) ReadBatch(ctx context.Context, pages []int) ([][]byte, error) {
	out := make([][]byte, len(pages))
	flat := make([]byte, len(pages)*x.pageSize)
	for i := range out {
		out[i] = flat[i*x.pageSize : (i+1)*x.pageSize]
	}
	if err := x.ReadBatchInto(ctx, pages, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBatchInto implements BatchInto: like ReadBatch, writing the page
// contents into caller-provided buffers. With pooled scratch inside the
// store, a steady-state batch allocates nothing beyond what the
// cryptographic randomness source needs.
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
	clearWords(sc.accbuf)
	nw := x.ScanWorkers()
	x.scan(x.a.arena, sc.selsA, sc.accsA, &sc.buckets, nw)
	if err := ctx.Err(); err != nil {
		return err
	}
	x.scan(x.b.arena, sc.selsB, sc.accsB, &sc.buckets, nw)
	// Two full-file passes (one per replica) answered the whole batch,
	// whatever its size — the quantity the amortization ratio tracks.
	x.recordScan(2*uint64(x.numPages), 2)
	for j := range pages {
		acc := sc.accsA[j]
		xorWords(acc, sc.accsB[j])
		unpackWords(dst[j][:x.pageSize], acc)
	}
	return nil
}

// scan is one full pass over arena answering sels into the caller-zeroed
// accs: the serial kernel, or a segmented fan-out when nw > 1.
func (x *XORPIR) scan(arena *wordArena, sels [][]byte, accs [][]uint64, bt *bucketTable, nw int) {
	if nw > 1 {
		x.answerAllParallel(&x.taskPool, arena, sels, accs, bt, nw)
	} else {
		arena.answerAll(sels, accs, bt)
	}
}

func clearWords(w []uint64) {
	for i := range w {
		w[i] = 0
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
// servers saw in the most recent ReadBatch, in request order. Test
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

// SelectorBytes implements ShareAnswerer: one bit per page, whole bytes.
func (x *XORPIR) SelectorBytes() int { return x.selBytes() }

// AnswerShares implements ShareAnswerer: one scan with k accumulators
// answers all k client-supplied selectors. This is the replica half of
// fleet mode — the store never sees the companion share, never
// reconstructs a page, and performs half the work of ReadBatch (which
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
	clearWords(sc.accbuf[:k*x.a.arena.wpp])
	x.scan(x.a.arena, sels, accs, &sc.buckets, x.ScanWorkers())
	// One full-file pass, whatever the batch size.
	x.recordScan(uint64(x.numPages), 1)
	x.logShares(sels)
	for j := range sels {
		unpackWords(dst[j][:x.pageSize], accs[j])
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

// SingleScanBatch implements SingleScan: a batch costs one scan regardless
// of size, so the serving layer must not split it.
func (x *XORPIR) SingleScanBatch() bool { return true }

// NumPages implements Store.
func (x *XORPIR) NumPages() int { return x.numPages }

// PageSize implements Store.
func (x *XORPIR) PageSize() int { return x.pageSize }
