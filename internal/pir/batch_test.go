package pir

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
)

// TestXORPIRBatchMatchesSequential: the single-scan multi-query path must
// return exactly what k independent Reads return, across odd geometries and
// with duplicate targets in one batch.
func TestXORPIRBatchMatchesSequential(t *testing.T) {
	for _, shape := range oddShapes {
		pages := makePages(shape.n, shape.ps, int64(41*shape.n+shape.ps))
		x, err := NewXORPIR(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int, 0, 2*shape.n+2)
		for p := 0; p < shape.n; p++ {
			batch = append(batch, p)
		}
		// Duplicates: two queries for one page must stay two independent
		// queries with identical answers.
		batch = append(batch, 0, shape.n-1, shape.n/2)
		got, err := x.ReadBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(batch) {
			t.Fatalf("%dx%d: %d answers for %d queries", shape.n, shape.ps, len(got), len(batch))
		}
		for i, p := range batch {
			if !bytes.Equal(got[i], pages[p]) {
				t.Fatalf("%dx%d: batch answer %d (page %d) wrong", shape.n, shape.ps, i, p)
			}
			single, err := x.Read(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(single, pages[p]) {
				t.Fatalf("%dx%d: sequential Read(%d) wrong", shape.n, shape.ps, p)
			}
		}
		if _, err := x.ReadBatch(context.Background(), []int{shape.n}); err == nil {
			t.Fatalf("%dx%d: out-of-range batch accepted", shape.n, shape.ps)
		}
		// An empty batch is a valid no-op, as it was under sequential
		// readEach — it must not disturb the recorded last queries.
		empty, err := x.ReadBatch(context.Background(), nil)
		if err != nil || len(empty) != 0 {
			t.Fatalf("%dx%d: empty batch: %v, %d answers", shape.n, shape.ps, err, len(empty))
		}
		if a, b := x.LastQueries(); a == nil || b == nil {
			t.Fatalf("%dx%d: empty batch clobbered the recorded queries", shape.n, shape.ps)
		}
	}
}

// TestKOPIRBatchMatchesSequential: the row-sharing multi-query rounds must
// decode to the exact page contents, including for odd page counts, pages
// that are not a multiple of 8 bytes, and duplicate rows in one batch.
func TestKOPIRBatchMatchesSequential(t *testing.T) {
	for _, shape := range []struct{ n, ps int }{{5, 3}, {6, 4}, {3, 1}} {
		pages := makePages(shape.n, shape.ps, int64(7*shape.n+shape.ps))
		k, err := NewKOPIR(src(pages, shape.ps), 128)
		if err != nil {
			t.Fatal(err)
		}
		batch := []int{shape.n - 1, 0, shape.n / 2, 0} // duplicate row 0
		got, err := k.ReadBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range batch {
			if !bytes.Equal(got[i], pages[p]) {
				t.Fatalf("%dx%d: batch answer %d (page %d) = %x, want %x",
					shape.n, shape.ps, i, p, got[i], pages[p])
			}
		}
		single, err := k.Read(1 % shape.n)
		if err != nil || !bytes.Equal(single, pages[1%shape.n]) {
			t.Fatalf("%dx%d: sequential Read after batch wrong: %v", shape.n, shape.ps, err)
		}
		if empty, err := k.ReadBatch(context.Background(), nil); err != nil || len(empty) != 0 {
			t.Fatalf("%dx%d: empty batch: %v, %d answers", shape.n, shape.ps, err, len(empty))
		}
		if err := k.ReadBatchInto(context.Background(), []int{0, 1}, [][]byte{make([]byte, shape.ps)}); err == nil {
			t.Fatalf("mismatched buffer count accepted")
		}
	}
}

// chiSquaredBits returns the chi-squared statistic of per-bit set counts
// against the fair-coin expectation over `trials` samples.
func chiSquaredBits(counts []int, trials int) float64 {
	expect := float64(trials) / 2
	variance := float64(trials) / 4
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expect
		chi2 += d * d / variance
	}
	return chi2
}

// TestXORPIRBatchSelectorsUniformAndIndependent is the multi-query privacy
// property: in a batched read, every query's server-A selector vector must
// remain (a) marginally uniform per bit, (b) independent of the other
// queries in the same batch, and (c) uncorrelated with its own target —
// exactly as if the k queries had been issued separately. Checked with
// chi-squared statistics over repeated batches against generous thresholds
// (≈10 standard deviations above the degrees of freedom, so a sound
// implementation fails with negligible probability).
func TestXORPIRBatchSelectorsUniformAndIndependent(t *testing.T) {
	const n, ps, trials = 64, 8, 384
	pages := makePages(n, ps, 21)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		t.Fatal(err)
	}
	// Fixed targets, including a duplicate: two queries for one page must
	// still carry independent randomness.
	targets := []int{3, 17, 17, 42}
	k := len(targets)

	perQuery := make([][]int, k) // [query][bit] set count of selector A
	pairXOR := make([][]int, 0)  // XOR of query-pair selectors, per bit
	pairIdx := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	for j := range perQuery {
		perQuery[j] = make([]int, n)
	}
	for range pairIdx {
		pairXOR = append(pairXOR, make([]int, n))
	}
	atTarget := make([]int, k)

	for trial := 0; trial < trials; trial++ {
		if _, err := x.ReadBatch(context.Background(), targets); err != nil {
			t.Fatal(err)
		}
		selsA, selsB := x.LastBatchQueries()
		if len(selsA) != k || len(selsB) != k {
			t.Fatalf("recorded %d/%d batch queries, want %d", len(selsA), len(selsB), k)
		}
		for j := range selsA {
			// The two server views must differ exactly at the target bit —
			// per query, batched or not.
			diffBits, diffAt := 0, -1
			for i := range selsA[j] {
				d := selsA[j][i] ^ selsB[j][i]
				for b := 0; b < 8; b++ {
					if d&(1<<b) != 0 {
						diffBits++
						diffAt = i*8 + b
					}
				}
			}
			if diffBits != 1 || diffAt != targets[j] {
				t.Fatalf("trial %d query %d: views differ at %d bit(s), position %d; want bit %d",
					trial, j, diffBits, diffAt, targets[j])
			}
			for b := 0; b < n; b++ {
				if selected(selsA[j], b) {
					perQuery[j][b]++
				}
			}
			if selected(selsA[j], targets[j]) {
				atTarget[j]++
			}
		}
		for pi, pr := range pairIdx {
			for b := 0; b < n; b++ {
				if selected(selsA[pr[0]], b) != selected(selsA[pr[1]], b) {
					pairXOR[pi][b]++
				}
			}
		}
	}

	// dof = n bits; 10 sigma above the mean of a chi-squared with n dof.
	threshold := float64(n) + 10*math.Sqrt(2*float64(n))
	for j := range perQuery {
		if chi2 := chiSquaredBits(perQuery[j], trials); chi2 > threshold {
			t.Errorf("query %d: selector bits not uniform (chi2 %.1f > %.1f)", j, chi2, threshold)
		}
		// The target bit itself is a fair coin: the selector leaks nothing
		// about which page the query wants.
		if d := math.Abs(float64(atTarget[j]) - float64(trials)/2); d > 6*math.Sqrt(float64(trials)/4) {
			t.Errorf("query %d: target bit set %d/%d times — correlated with target", j, atTarget[j], trials)
		}
	}
	for pi, pr := range pairIdx {
		if chi2 := chiSquaredBits(pairXOR[pi], trials); chi2 > threshold {
			t.Errorf("queries %v: pairwise XOR not uniform (chi2 %.1f > %.1f) — batch queries correlated", pr, chi2, threshold)
		}
	}
}

// selected reports whether page p is set in the selector bit vector.
func selected(sel []byte, p int) bool {
	return sel[p>>3]&(1<<(p&7)) != 0
}

// fakeRand adapts math/rand to the store's randomness source so the
// zero-allocation property can be measured without crypto/rand noise.
// (crypto/rand itself reads straight into the caller's buffer; this swap
// just keeps the test hermetic and fast.)
type fakeRand struct{ rng *rand.Rand }

func (f fakeRand) Read(p []byte) (int, error) { return f.rng.Read(p) }

// TestXORPIRReadBatchIntoZeroAllocs pins the allocation-free steady state
// of the single-scan batch path: with the scratch pool warm and
// caller-provided destination buffers, a batched oblivious read allocates
// nothing — bucket table included, on a file where the k=8 batch folds in
// groups of 4 and on one where it folds as a single 8-selector group.
func TestXORPIRReadBatchIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, c := range []struct{ n, ps, g int }{{128, 512, 4}, {1024, 64, maxGroup}} {
		batch := []int{0, 7, 7, 31, 64, c.n - 1, 90, 13}
		if g := groupWidth(len(batch), c.n); g != c.g {
			t.Fatalf("%dx%d: groupWidth(%d, %d) = %d, want %d", c.n, c.ps, len(batch), c.n, g, c.g)
		}
		pages := makePages(c.n, c.ps, 23)
		x, err := NewXORPIR(src(pages, c.ps))
		if err != nil {
			t.Fatal(err)
		}
		x.rng = fakeRand{rng: rand.New(rand.NewSource(5))}
		checkZeroAllocBatch(t, x, pages, batch)
	}
}

// checkZeroAllocBatch fails t unless steady-state ReadBatchInto of batch
// against x allocates nothing and still decodes the exact pages.
func checkZeroAllocBatch(t *testing.T, x *XORPIR, pages [][]byte, batch []int) {
	t.Helper()
	dst := make([][]byte, len(batch))
	for i := range dst {
		dst[i] = make([]byte, x.PageSize())
	}
	ctx := context.Background()
	read := func() {
		if err := x.ReadBatchInto(ctx, batch, dst); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm: scratch pool, bucket tables, recorded-query buffers, workers
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Fatalf("%d pages, %d workers: steady-state ReadBatchInto allocates %.1f objects per batch; want 0",
			x.NumPages(), x.ScanWorkers(), allocs)
	}
	for i, p := range batch {
		if !bytes.Equal(dst[i], pages[p]) {
			t.Fatalf("answer %d (page %d) wrong after alloc-free reads", i, p)
		}
	}
}

// TestReadEachHonorsContext: the shared sequential ReadBatch helper checks
// ctx at page boundaries — a cancelled batch stops without touching more
// pages.
func TestReadEachHonorsContext(t *testing.T) {
	pages := makePages(4, 8, 29)
	p := NewPlain(src(pages, 8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReadEach(ctx, p, []int{0, 1, 2}); err != context.Canceled {
		t.Fatalf("cancelled ReadEach returned %v, want context.Canceled", err)
	}
	out, err := ReadEach(context.Background(), p, []int{2, 0})
	if err != nil || !bytes.Equal(out[0], pages[2]) || !bytes.Equal(out[1], pages[0]) {
		t.Fatalf("ReadEach wrong: %v", err)
	}
}
