package pir

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// workerFanOuts are the group widths the equivalence tests force, chosen to
// exercise submitter-only (1), even splits, odd splits, and widths at or
// beyond the page count of the smaller shapes (SetScanWorkers clamps).
var workerFanOuts = []int{1, 2, 3, 4, 8}

// TestAnswerAllParallelMatchesSerial pins the kernel-level contract: the
// segmented parallel fold, every segment through its own bucket table, must
// produce the byte kernel's answers across the odd geometries (tail words,
// 1-page files), the wide shape whose segments fold 8-selector groups, and
// every batch size the kernel oracles sweep.
func TestAnswerAllParallelMatchesSerial(t *testing.T) {
	for _, shape := range kernelShapes {
		pages := makePages(shape.n, shape.ps, int64(13*shape.n+shape.ps))
		arena, err := newWordArena(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		group := newScanGroup(1, shape.n)
		pool := &freeList[arenaTask]{}
		rng := rand.New(rand.NewSource(int64(shape.n)))
		var bt bucketTable
		for _, k := range kernelKs {
			sels := randomSelectors(rng, k, shape.n)
			got := newAccs(k, arena.wpp)
			for _, nw := range workerFanOuts {
				eff := group.SetScanWorkers(nw)
				for j := range got {
					clearWords(got[j])
				}
				if eff > 1 {
					group.answerAllParallel(pool, arena, sels, got, &bt, eff)
				} else {
					arena.answerAll(sels, got, &bt)
				}
				what := fmt.Sprintf("%dx%d k=%d nw=%d(eff %d)", shape.n, shape.ps, k, nw, eff)
				checkAccs(t, what, pages, shape.ps, sels, got, 0, shape.n)
			}
		}
	}
}

// TestXORPIRParallelMatchesPages drives the full store path with forced
// worker widths: answers must decode to the exact page contents whatever
// the fan-out, including duplicate targets and a batch covering every page.
func TestXORPIRParallelMatchesPages(t *testing.T) {
	for _, shape := range oddShapes {
		pages := makePages(shape.n, shape.ps, int64(31*shape.n+shape.ps))
		x, err := NewXORPIR(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int, 0, shape.n+2)
		for p := 0; p < shape.n; p++ {
			batch = append(batch, p)
		}
		batch = append(batch, 0, shape.n-1) // duplicates share the scan
		for _, nw := range workerFanOuts {
			eff := x.SetScanWorkers(nw)
			if eff < 1 || eff > shape.n {
				t.Fatalf("%dx%d: SetScanWorkers(%d) = %d, outside [1,%d]",
					shape.n, shape.ps, nw, eff, shape.n)
			}
			got, err := x.ReadBatch(context.Background(), batch)
			if err != nil {
				t.Fatalf("%dx%d nw=%d: %v", shape.n, shape.ps, nw, err)
			}
			for i, p := range batch {
				if !bytes.Equal(got[i], pages[p]) {
					t.Fatalf("%dx%d nw=%d: answer %d (page %d) wrong", shape.n, shape.ps, nw, i, p)
				}
			}
			// k=1 through the same width.
			one, err := x.Read(shape.n / 2)
			if err != nil || !bytes.Equal(one, pages[shape.n/2]) {
				t.Fatalf("%dx%d nw=%d: single read wrong: %v", shape.n, shape.ps, nw, err)
			}
		}
	}
}

// TestKOPIRParallelMatchesPages: the byte-column-partitioned KOPIR rounds
// must decode the exact pages for every width (columns clamp the fan-out for
// 1-byte pages).
func TestKOPIRParallelMatchesPages(t *testing.T) {
	for _, shape := range []struct{ n, ps int }{{5, 3}, {3, 1}, {4, 8}} {
		pages := makePages(shape.n, shape.ps, int64(17*shape.n+shape.ps))
		k, err := NewKOPIR(src(pages, shape.ps), 128)
		if err != nil {
			t.Fatal(err)
		}
		batch := []int{shape.n - 1, 0, 0}
		for _, nw := range []int{1, 2, 4} {
			eff := k.SetScanWorkers(nw)
			if eff > shape.ps {
				t.Fatalf("%dx%d: width %d exceeds %d byte columns", shape.n, shape.ps, eff, shape.ps)
			}
			got, err := k.ReadBatch(context.Background(), batch)
			if err != nil {
				t.Fatalf("%dx%d nw=%d: %v", shape.n, shape.ps, nw, err)
			}
			for i, p := range batch {
				if !bytes.Equal(got[i], pages[p]) {
					t.Fatalf("%dx%d nw=%d: answer %d (page %d) = %x, want %x",
						shape.n, shape.ps, nw, i, p, got[i], pages[p])
				}
			}
		}
	}
}

// TestKOPIRParallelHonorsContext: a cancelled context surfaces as the
// context error even when segments are in flight across workers.
func TestKOPIRParallelHonorsContext(t *testing.T) {
	pages := makePages(4, 4, 3)
	k, err := NewKOPIR(src(pages, 4), 128)
	if err != nil {
		t.Fatal(err)
	}
	k.SetScanWorkers(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := k.ReadBatchInto(ctx, []int{1}, [][]byte{make([]byte, 4)}); err != context.Canceled {
		t.Fatalf("cancelled parallel KOPIR batch returned %v, want context.Canceled", err)
	}
}

// TestXORPIRParallelZeroAllocs pins the tentpole's allocation contract: the
// parallel steady state allocates nothing, anywhere in the runtime (the pin
// counts mallocs globally, so worker-goroutine allocations would fail it
// too). Requires the submitter-last reclaim in scanGroup.exec: the pooled
// task must come home on the submitting goroutine. The second file is long
// enough that every segment folds the k=8 batch as one 8-selector group
// through its own bucket table.
func TestXORPIRParallelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const workers = 4
	for _, c := range []struct{ n, ps, g int }{{256, 512, 4}, {4096, 64, maxGroup}} {
		batch := []int{0, 9, 9, 55, 128, c.n - 1, 77, 31}
		if g := groupWidth(len(batch), c.n/workers); g != c.g {
			t.Fatalf("%dx%d: segment groupWidth(%d, %d) = %d, want %d",
				c.n, c.ps, len(batch), c.n/workers, g, c.g)
		}
		pages := makePages(c.n, c.ps, 47)
		x, err := NewXORPIR(src(pages, c.ps))
		if err != nil {
			t.Fatal(err)
		}
		x.rng = fakeRand{rng: rand.New(rand.NewSource(9))}
		x.SetScanWorkers(workers)
		checkZeroAllocBatch(t, x, pages, batch)
	}
}

// TestScanObserverDeterministicCount pins the telemetry leakage invariant at
// the store level: a parallel batch produces exactly 2×ScanWorkers segment
// observations (one arena pass per replica), a function of configuration
// alone — never of batch size, targets, or page contents.
func TestScanObserverDeterministicCount(t *testing.T) {
	const n, ps = 64, 64
	pages := makePages(n, ps, 51)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	x.SetScanObserver(func(time.Duration) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	for _, nw := range []int{2, 3, 4} {
		x.SetScanWorkers(nw)
		for _, batch := range [][]int{{0}, {1, 2, 3}, {5, 5, 5, 5, 5}} {
			mu.Lock()
			count = 0
			mu.Unlock()
			if _, err := x.ReadBatch(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got := count
			mu.Unlock()
			if got != 2*nw {
				t.Fatalf("nw=%d batch=%v: %d segment observations, want %d", nw, batch, got, 2*nw)
			}
		}
	}
	// The serial path emits none, and a removed observer goes quiet.
	x.SetScanWorkers(1)
	mu.Lock()
	count = 0
	mu.Unlock()
	if _, err := x.Read(0); err != nil {
		t.Fatal(err)
	}
	x.SetScanWorkers(2)
	x.SetScanObserver(nil)
	if _, err := x.Read(0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if count != 0 {
		t.Fatalf("serial or observer-less reads produced %d observations, want 0", count)
	}
	mu.Unlock()
}

// TestSetScanWorkersClamps pins the width-resolution rules: explicit widths
// clamp to the store's segmentable units, n <= 0 restores the size-aware
// default, and the default never exceeds the unit count.
func TestSetScanWorkersClamps(t *testing.T) {
	pages := makePages(3, 16, 7)
	x, err := NewXORPIR(src(pages, 16))
	if err != nil {
		t.Fatal(err)
	}
	if got := x.SetScanWorkers(64); got != 3 {
		t.Fatalf("SetScanWorkers(64) on a 3-page store = %d, want 3", got)
	}
	if got := x.ScanWorkers(); got != 3 {
		t.Fatalf("ScanWorkers after clamp = %d, want 3", got)
	}
	if got := x.SetScanWorkers(1); got != 1 {
		t.Fatalf("SetScanWorkers(1) = %d, want 1", got)
	}
	def := x.SetScanWorkers(0)
	if def < 1 || def > 3 {
		t.Fatalf("default width %d outside [1,3]", def)
	}
	// A tiny arena sizes its default to the serial kernel: 3 pages of 16
	// bytes is far below the per-worker floor.
	if def != 1 {
		t.Fatalf("default width %d for a 48-byte arena, want 1 (below segment floor)", def)
	}
}
