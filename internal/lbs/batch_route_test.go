package lbs

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/pagefile"
	"repro/internal/pir"
)

// countingBatchStore wraps a Plain store, counting ReadBatchInto calls and
// the largest batch it received, and declares single-scan batching on
// demand — the capability the serving layer's routing decision hangs on.
type countingBatchStore struct {
	pir.Store
	single bool

	mu       sync.Mutex
	calls    int
	maxBatch int
}

func (c *countingBatchStore) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	c.mu.Lock()
	c.calls++
	if len(pages) > c.maxBatch {
		c.maxBatch = len(pages)
	}
	c.mu.Unlock()
	return c.Store.ReadBatchInto(ctx, pages, dst)
}

func (c *countingBatchStore) Caps() pir.Caps { return pir.Caps{Concurrent: true, SingleScan: c.single} }

func countingFactory(single bool, out **countingBatchStore) StoreFactory {
	return func(f pagefile.Reader) (pir.Store, error) {
		st, err := PlainStores(f)
		if err != nil {
			return nil, err
		}
		cs := &countingBatchStore{Store: st, single: single}
		*out = cs
		return cs, nil
	}
}

// TestSingleScanBatchNeverSplit: a store that answers its whole batch in
// one scan must receive the entire batch in ONE ReadBatchInto call however
// many pool workers are free — splitting would multiply full-file scans —
// while a store without the single-scan property fans out across workers.
func TestSingleScanBatchNeverSplit(t *testing.T) {
	const pagesN, batchN = 40, 32
	f := pagefile.NewFile("F", 64)
	want := make([][]byte, pagesN)
	for i := 0; i < pagesN; i++ {
		want[i] = bytes.Repeat([]byte{byte(i + 1)}, 8)
		f.MustAppendPage(want[i])
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}

	for _, tc := range []struct {
		name      string
		single    bool
		wantCalls int // exact for single-scan, lower bound otherwise
	}{
		{"single-scan", true, 1},
		{"splittable", false, 2},
	} {
		var cs *countingBatchStore
		srv, err := NewServer(db, costmodel.Default(), countingFactory(tc.single, &cs), WithWorkers(8))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int, batchN)
		for i := range batch {
			batch[i] = (i * 3) % pagesN
		}
		got, err := srv.ReadPages(context.Background(), "F", batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range batch {
			if !bytes.Equal(got[i][:8], want[p]) {
				t.Fatalf("%s: slot %d wrong content", tc.name, i)
			}
		}
		if tc.single {
			if cs.calls != 1 || cs.maxBatch != batchN {
				t.Errorf("single-scan batch split: %d ReadBatchInto calls, largest %d (want 1 call of %d)",
					cs.calls, cs.maxBatch, batchN)
			}
		} else if cs.calls < tc.wantCalls {
			t.Errorf("splittable batch not fanned out: %d ReadBatchInto calls", cs.calls)
		}
	}
}

// TestReadPagesIntoMatchesReadPages: the buffer-filling read path must
// return byte-identical results to the allocating one across every store
// routing class — concurrent (plain, sharded ORAM), single-scan (XORPIR),
// and serial (single sqrt-ORAM).
func TestReadPagesIntoMatchesReadPages(t *testing.T) {
	const pagesN, pageSize = 24, 32
	f := pagefile.NewFile("F", pageSize)
	for i := 0; i < pagesN; i++ {
		f.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, pageSize))
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}

	factories := map[string]StoreFactory{
		"plain":   nil,
		"xorpir":  func(r pagefile.Reader) (pir.Store, error) { return pir.NewXORPIR(r) },
		"sharded": ShardedORAMStores(4, 3),
		"oram":    ORAMStores(5),
	}
	batch := []int{0, 23, 7, 7, 12, 3, 19, 1}
	for name, factory := range factories {
		for _, workers := range []int{1, 4} {
			srv, err := NewServer(db, costmodel.Default(), factory, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			want, err := srv.ReadPages(context.Background(), "F", batch)
			if err != nil {
				t.Fatalf("%s/w=%d: ReadPages: %v", name, workers, err)
			}
			dst := make([][]byte, len(batch))
			for i := range dst {
				dst[i] = make([]byte, pageSize)
			}
			if err := srv.ReadPagesInto(context.Background(), "F", batch, dst); err != nil {
				t.Fatalf("%s/w=%d: ReadPagesInto: %v", name, workers, err)
			}
			for i := range batch {
				if !bytes.Equal(dst[i], want[i][:pageSize]) {
					t.Fatalf("%s/w=%d: slot %d differs between Into and allocating path", name, workers, i)
				}
			}
			if err := srv.ReadPagesInto(context.Background(), "F", batch, dst[:3]); err == nil {
				t.Fatalf("%s/w=%d: mismatched buffer count accepted", name, workers)
			}
			if err := srv.ReadPagesInto(context.Background(), "nope", batch, dst); err == nil {
				t.Fatalf("%s/w=%d: unknown file accepted", name, workers)
			}
		}
	}
}

// countingXOR decorates an XOR PIR store the way an instrumenting wrapper
// does: embedding keeps every capability, and the two scan entry points are
// overridden to count their calls.
type countingXOR struct {
	*pir.XORPIR
	reads, shares atomic.Int32
}

func (c *countingXOR) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	c.reads.Add(1)
	return c.XORPIR.ReadBatchInto(ctx, pages, dst)
}

func (c *countingXOR) AnswerShares(ctx context.Context, sels [][]byte, dst [][]byte) error {
	c.shares.Add(1)
	return c.XORPIR.AnswerShares(ctx, sels, dst)
}

// TestDecoratedStoreStaysOnReadPath: every read and share answer must go
// through the store value the factory returned, never through a store
// reached inside it — otherwise a decorator's overrides (timers, counters)
// silently drop off the path.
func TestDecoratedStoreStaysOnReadPath(t *testing.T) {
	const pagesN, pageSize = 16, 32
	f := pagefile.NewFile("F", pageSize)
	for i := 0; i < pagesN; i++ {
		f.MustAppendPage(bytes.Repeat([]byte{byte(i + 1)}, pageSize))
	}
	db := &Database{Scheme: "TEST", Header: []byte("h"), Files: []pagefile.Reader{f}}
	for _, workers := range []int{1, 4} {
		var cx *countingXOR
		srv, err := NewServer(db, costmodel.Default(), func(r pagefile.Reader) (pir.Store, error) {
			x, err := pir.NewXORPIR(r)
			cx = &countingXOR{XORPIR: x}
			return cx, err
		}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !srv.ShareCapable() {
			t.Fatalf("w=%d: decorated XOR PIR store not share-capable", workers)
		}
		ctx := context.Background()
		dst := [][]byte{make([]byte, pageSize)}
		if err := srv.ReadPagesInto(ctx, "F", []int{3}, dst); err != nil {
			t.Fatal(err)
		}
		got, err := srv.ReadPages(ctx, "F", []int{5})
		if err != nil {
			t.Fatal(err)
		}
		if dst[0][0] != 4 || got[0][0] != 6 {
			t.Fatalf("w=%d: pages read %d and %d, want 4 and 6", workers, dst[0][0], got[0][0])
		}
		if n := cx.reads.Load(); n != 2 {
			t.Errorf("w=%d: ReadPagesInto+ReadPages made %d calls to the decorator's ReadBatchInto, want 2", workers, n)
		}
		sel := make([]byte, (pagesN+7)/8)
		sel[0] = 1 << 2 // select page 2 alone
		if err := srv.AnswerShares(ctx, "F", [][]byte{sel}, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0][0] != 3 {
			t.Fatalf("w=%d: share answer %d, want page 2's byte 3", workers, dst[0][0])
		}
		if n := cx.shares.Load(); n != 1 {
			t.Errorf("w=%d: AnswerShares made %d calls to the decorator's AnswerShares, want 1", workers, n)
		}
	}
}
