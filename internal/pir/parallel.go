package pir

import (
	"crypto/subtle"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file parallelizes the full-file scan every SPC answer performs. The
// vectorized kernel of kernel.go already runs one scan at memory speed on
// one core; on a multi-core server that leaves most of the machine's memory
// bandwidth idle while a scan is the unit of serving capacity. The scan is a
// data-independent XOR fold over the file's page rows, so it partitions
// cleanly:
//
//   - The file is split into contiguous page ranges, one per segment.
//     Workers only read the shared rows, and every write goes to a
//     segment-private accumulator block and bucket table, never a shared
//     cache line.
//   - Each worker folds its segment into its own k per-query partial
//     accumulators (drawn from a pool), and a final XOR pass combines the
//     partials. XOR is associative and commutative, so the parallel answer
//     is byte-identical to the serial one.
//   - Workers are a persistent per-store group: goroutines start lazily on
//     the first parallel scan, park on a shared task channel between scans,
//     and exit when the owning store is garbage collected. The submitting
//     goroutine always works too (claiming segments from the same atomic
//     counter), so a scan never waits on a parked worker to wake before
//     making progress, and a fully contended group degrades to the serial
//     kernel instead of deadlocking.
//
// Obliviousness is untouched: parallelism changes which core XORs which
// bytes, never which pages a scan touches (all of them, §2.2) or how
// selector randomness is drawn (per query, inside the store, exactly as in
// the serial path).

// minSegBytes is the default sizing floor: a worker must have at least this
// much of the file (512 KiB) to pay for its share of the fan-out handshake.
// Stores below the floor scan serially; an explicit SetScanWorkers call
// overrides the floor (the serving layer and the tests know better).
const minSegBytes = 512 << 10

// segJobQueue is the task channel capacity. Sends are non-blocking — a full
// queue just means the submitter claims more segments itself — so the
// capacity only bounds how many concurrent scans can park helper requests.
const segJobQueue = 32

// scanGroup is XORPIR's persistent worker group. It resolves the
// configured width against the store's page count and runs scanTasks across
// lazily started goroutines.
type scanGroup struct {
	defaultN int // resolved GOMAXPROCS/size-aware default width
	maxUnits int // hard cap: the most segments a scan of this store has

	workers  atomic.Int32
	observer atomic.Pointer[func(time.Duration)]

	jobs chan *scanTask
	stop chan struct{}

	mu      sync.Mutex
	started atomic.Int32

	pool freeList[scanTask]
}

// newScanGroup builds a group for a store with maxUnits segmentable pages
// and the given default width; the effective width starts at the default.
// The returned group must be bound to its owning store with bindCleanup so
// the parked workers exit when the store is collected.
func newScanGroup(defaultN, maxUnits int) *scanGroup {
	g := &scanGroup{
		defaultN: clampWorkers(defaultN, maxUnits),
		maxUnits: maxUnits,
		jobs:     make(chan *scanTask, segJobQueue),
		stop:     make(chan struct{}),
	}
	g.workers.Store(int32(g.defaultN))
	return g
}

// bindCleanup ties the group's worker lifetime to owner: when the store
// becomes unreachable, the stop channel closes and parked workers exit.
// The cleanup closure must not capture the group (that would keep the owner
// alive forever), so it receives the channel as the cleanup argument.
func bindCleanup[T any](owner *T, g *scanGroup) {
	runtime.AddCleanup(owner, func(stop chan struct{}) { close(stop) }, g.stop)
}

// defaultScanWorkers sizes the default width for a file of fileBytes:
// GOMAXPROCS, shrunk so every worker gets at least minSegBytes of it.
func defaultScanWorkers(fileBytes int) int {
	return min(runtime.GOMAXPROCS(0), fileBytes/minSegBytes)
}

// clampWorkers bounds a width to [1, maxUnits].
func clampWorkers(n, maxUnits int) int {
	if n > maxUnits {
		n = maxUnits
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetScanWorkers implements ShareServer.
func (g *scanGroup) SetScanWorkers(n int) int {
	if n <= 0 {
		n = g.defaultN
	}
	eff := clampWorkers(n, g.maxUnits)
	g.workers.Store(int32(eff))
	return eff
}

// ScanWorkers returns the effective worker-group width (1 = serial).
func (g *scanGroup) ScanWorkers() int { return int(g.workers.Load()) }

// SetScanObserver implements ShareServer.
func (g *scanGroup) SetScanObserver(fn func(time.Duration)) {
	if fn == nil {
		g.observer.Store(nil)
		return
	}
	g.observer.Store(&fn)
}

// scanTask is one parallel answerAll: segment seg folds pages
// [seg*chunk, (seg+1)*chunk) into its own accumulator block through its own
// bucket table. Segment 0 works in the caller's accumulators and bucket
// table directly; segments 1..nseg-1 write pooled partials through pooled
// tables, and the submitter combines the partials afterwards.
type scanTask struct {
	nseg    int32
	next    atomic.Int32
	refs    atomic.Int32
	wg      sync.WaitGroup
	observe func(time.Duration)
	pool    *freeList[scanTask]

	rows  [][]byte
	sels  [][]byte
	accs  [][]byte
	bt    *bucketTable
	k     int
	chunk int

	partbuf []byte
	parts   [][]byte
	buckets []bucketTable // segments 1..nseg-1
}

// exec runs t's nseg segments across the group and the calling goroutine,
// returning once every segment has been folded. The caller may read the
// task's results after exec and must call t.deref() when done with them:
// copies of the task may still sit in the job queue, and the backing
// buffers are recycled only when the last reference drops.
func (g *scanGroup) exec(t *scanTask) {
	t.next.Store(0)
	t.refs.Store(1)
	t.wg.Add(int(t.nseg))
	if p := g.observer.Load(); p != nil {
		t.observe = *p
	} else {
		t.observe = nil
	}
	// One helper per segment beyond the submitter's own. Sends never
	// block: a full queue (or a helper that hasn't parked yet) just means
	// the submitter claims those segments itself.
	helpers := int(t.nseg) - 1
	g.ensure(helpers)
	for i := 0; i < helpers; i++ {
		t.refs.Add(1)
		select {
		case g.jobs <- t:
		case <-g.stop:
			t.refs.Add(-1)
		default:
			t.refs.Add(-1)
		}
	}
	t.claimLoop()
	t.wg.Wait()
	// Reclaim helper copies that were never delivered (the queue drains
	// into this goroutine; a copy of ANOTHER task found on the way is
	// simply executed — work stealing between concurrent scans). Leaving
	// here with refs == 1 means the submitter's deref is always the last:
	// pooled buffers return on the submitting goroutine, and no stale copy
	// outlives the scan.
	for t.refs.Load() > 1 {
		select {
		case st := <-g.jobs:
			st.claimLoop()
			st.deref()
		default:
			runtime.Gosched()
		}
	}
}

// claimLoop folds segments until none remain, timing each fold for the
// observer. Claims are a single atomic add, so work balances across however
// many participants actually showed up.
func (t *scanTask) claimLoop() {
	for {
		seg := t.next.Add(1) - 1
		if seg >= t.nseg {
			return
		}
		if t.observe != nil {
			start := time.Now()
			t.runSegment(int(seg))
			t.observe(time.Since(start))
		} else {
			t.runSegment(int(seg))
		}
		t.wg.Done()
	}
}

// runSegment folds one contiguous page range into the segment's
// accumulator block.
func (t *scanTask) runSegment(seg int) {
	start := seg * t.chunk
	end := min(start+t.chunk, len(t.rows))
	accs, bt := t.accs, t.bt
	if seg > 0 {
		accs, bt = t.parts[(seg-1)*t.k:seg*t.k], &t.buckets[seg-1]
		for _, acc := range accs {
			clear(acc)
		}
	}
	answerAllRange(t.rows, t.sels, accs, start, end, bt)
}

// deref drops one reference; the last holder drops the slice references
// (the rows belong to the store, the selectors and accumulators to the
// caller's scratch) and recycles the task. It runs only after every
// segment claim has failed, so no goroutine can still be reading the
// fields.
func (t *scanTask) deref() {
	if t.refs.Add(-1) != 0 {
		return
	}
	t.rows, t.sels, t.accs, t.bt = nil, nil, nil, nil
	t.parts = t.parts[:0]
	t.pool.put(t)
}

// ensure lazily starts parked worker goroutines, up to n beyond those
// already running. Workers are shared by every scan against the store and
// exit when the store is collected (bindCleanup).
func (g *scanGroup) ensure(n int) {
	if n <= 0 || int(g.started.Load()) >= n {
		return
	}
	g.mu.Lock()
	for int(g.started.Load()) < n {
		g.started.Add(1)
		go g.worker()
	}
	g.mu.Unlock()
}

// worker parks on the job queue, folds segments of whatever task arrives,
// and exits when the owning store is collected.
func (g *scanGroup) worker() {
	for {
		select {
		case t := <-g.jobs:
			t.claimLoop()
			t.deref()
		case <-g.stop:
			return
		}
	}
}

// freeList is a per-store stack of reusable scan working sets. Unlike a
// sync.Pool it keeps no per-P copies and is not emptied by garbage
// collection, so a store holds as many as its peak number of concurrent
// scans and no more: each carries bucket tables of up to a megabyte (see
// kernel.go), and the extra copies a sync.Pool keeps showed up as resident
// memory.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get pops a free value, or returns nil when none is free.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.items)
	if n == 0 {
		return nil
	}
	v := f.items[n-1]
	f.items[n-1] = nil
	f.items = f.items[:n-1]
	return v
}

// put returns v for reuse.
func (f *freeList[T]) put(v *T) {
	f.mu.Lock()
	f.items = append(f.items, v)
	f.mu.Unlock()
}

// answerAllParallel answers k selectors with nw workers in one segmented
// pass over rows, leaving the combined answers in accs (caller-zeroed, like
// answerAll; bt is the caller's bucket table, which segment 0 uses).
// Byte-identical to answerAll.
func (g *scanGroup) answerAllParallel(rows, sels, accs [][]byte, bt *bucketTable, nw int) {
	t := g.pool.get()
	if t == nil {
		t = &scanTask{pool: &g.pool}
	}
	k, ps := len(sels), len(accs[0])
	t.rows, t.sels, t.accs, t.bt = rows, sels, accs, bt
	t.k = k
	t.chunk = (len(rows) + nw - 1) / nw
	if need := (nw - 1) * k * ps; cap(t.partbuf) < need {
		t.partbuf = make([]byte, need)
	}
	t.partbuf = t.partbuf[:(nw-1)*k*ps]
	t.parts = sliceRows(t.parts[:0], t.partbuf, ps)
	for len(t.buckets) < nw-1 {
		t.buckets = append(t.buckets, bucketTable{})
	}
	t.nseg = int32(nw)
	g.exec(t)
	// Combine: fold every worker's partials into the caller's
	// accumulators. One pass over (nw-1)*k rows — noise against the
	// numPages rows each scan walks.
	for w := 0; w < nw-1; w++ {
		for j, acc := range accs {
			subtle.XORBytes(acc, acc, t.parts[w*k+j])
		}
	}
	t.deref()
}
