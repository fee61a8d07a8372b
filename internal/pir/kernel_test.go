package pir

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/pagefile"
)

// oddShapes are the page-file geometries most likely to break a vectorized
// kernel: page counts that are not a multiple of 8 (partial selector byte),
// page sizes that are not a multiple of 8 (a partial trailing word for the
// vector loop), and the degenerate single-page file.
var oddShapes = []struct{ n, ps int }{
	{1, 1},
	{1, 8},
	{3, 5},
	{13, 13},
	{9, 8},
	{8, 24},
	{17, 100},
	{64, 31},
}

// kernelShapes are oddShapes plus one file long enough that a k=8 batch
// folds as a single 8-selector group, also when split into two scan
// segments (TestGroupWidthShapes pins that), so the widest bucket table is
// exercised too.
var kernelShapes = append(oddShapes[:len(oddShapes):len(oddShapes)], struct{ n, ps int }{2100, 12})

// kernelKs are the batch sizes the kernel oracles sweep: the direct fold
// (k=1), groups narrower than, equal to and one past maxGroup, and batches
// of several groups with and without a remainder group.
var kernelKs = []int{1, 2, 3, 7, 8, 9, 16, 17, 64}

// randomSelectors draws k selector vectors over n pages, with the bits
// beyond page n-1 cleared as the stores clear them.
func randomSelectors(rng *rand.Rand, k, n int) [][]byte {
	nbytes := (n + 7) / 8
	sels := make([][]byte, k)
	for j := range sels {
		sels[j] = make([]byte, nbytes)
		rng.Read(sels[j])
		sels[j][nbytes-1] &= byte(1<<((n-1)%8+1)) - 1
	}
	return sels
}

// rangeAnswer is the byte-kernel oracle for sel restricted to pages
// [start, end): sel with every bit outside the range cleared.
func rangeAnswer(pages [][]byte, ps int, sel []byte, start, end int) []byte {
	masked := make([]byte, len(sel))
	for p := start; p < end; p++ {
		masked[p>>3] |= sel[p>>3] & (1 << (p & 7))
	}
	return xorAnswerBytes(pages, ps, masked)
}

// checkAccs fails t unless every accumulator decodes to the oracle answer of
// its selector over [start, end).
func checkAccs(t *testing.T, what string, pages [][]byte, ps int, sels, accs [][]byte, start, end int) {
	t.Helper()
	for j, sel := range sels {
		if want := rangeAnswer(pages, ps, sel, start, end); !bytes.Equal(accs[j], want) {
			t.Fatalf("%s: selector %d of %d over pages [%d,%d) differs from the byte kernel",
				what, j, len(sels), start, end)
		}
	}
}

// checkTableSize fails t if the bucket table's rows hold more bytes than
// the range of the file the last scan folded.
func checkTableSize(t *testing.T, what string, bt *bucketTable, rangeBytes int) {
	t.Helper()
	if len(bt.buf) > rangeBytes {
		t.Fatalf("%s: bucket table of %d bytes for a %d-byte range", what, len(bt.buf), rangeBytes)
	}
}

// newAccs returns k zeroed accumulators of ps bytes.
func newAccs(k, ps int) [][]byte {
	accs := make([][]byte, k)
	for j := range accs {
		accs[j] = make([]byte, ps)
	}
	return accs
}

// TestWordKernelMatchesByteKernel checks the pattern-bucketed kernel over
// the file's own page rows against the byte-at-a-time reference
// implementation across odd shapes and
// batch sizes, over whole files and over ranges that start mid selector
// byte. One bucket table serves every call, as a store's scratch does, and
// after each call it must hold no more bytes than the range it folded.
func TestWordKernelMatchesByteKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var bt bucketTable
	for _, shape := range kernelShapes {
		pages := makePages(shape.n, shape.ps, int64(shape.n*1000+shape.ps))
		rows, err := loadRows(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kernelKs {
			sels := randomSelectors(rng, k, shape.n)
			accs := newAccs(k, shape.ps)
			answerAll(rows, sels, accs, &bt)
			what := fmt.Sprintf("%dx%d k=%d", shape.n, shape.ps, k)
			checkAccs(t, what, pages, shape.ps, sels, accs, 0, shape.n)
			checkTableSize(t, what, &bt, shape.n*shape.ps)
			for _, r := range [][2]int{{1, shape.n}, {3, shape.n - 2}, {shape.n/3 | 5, shape.n}} {
				if r[0] >= r[1] {
					continue
				}
				accs := newAccs(k, shape.ps)
				answerAllRange(rows, sels, accs, r[0], r[1], &bt)
				checkAccs(t, what, pages, shape.ps, sels, accs, r[0], r[1])
				checkTableSize(t, what, &bt, (r[1]-r[0])*shape.ps)
			}
		}
	}
}

// TestGroupWidthShapes pins the group-width choice: a single selector is
// always the direct fold, the wide test shape and PI's Fi file fold a k=8
// batch as one 8-selector group, and no choice builds a bucket table larger
// than the range it scans.
func TestGroupWidthShapes(t *testing.T) {
	for _, c := range []struct{ k, n, want int }{
		{1, 100000, 1},
		{8, kernelShapes[len(kernelShapes)-1].n, maxGroup},
		{8, kernelShapes[len(kernelShapes)-1].n / 2, maxGroup},
		{8, 11321, maxGroup},
		{8, 1, 1},
	} {
		if got := groupWidth(c.k, c.n); got != c.want {
			t.Errorf("groupWidth(%d, %d) = %d, want %d", c.k, c.n, got, c.want)
		}
	}
	for n := 1; n <= 4096; n += 1 + n/16 {
		for _, k := range kernelKs {
			g := groupWidth(k, n)
			if g < 1 || g > min(k, maxGroup) {
				t.Fatalf("groupWidth(%d, %d) = %d, outside [1, %d]", k, n, g, min(k, maxGroup))
			}
			rows := 0 // counted group by group, independently of tableRows
			for j0 := 0; j0 < k; j0 += g {
				gi := min(g, k-j0)
				rows += 1<<gi - 1 - gi
			}
			if rows != tableRows(k, g) || rows > n {
				t.Fatalf("groupWidth(%d, %d) = %d needs %d table rows (tableRows says %d) for a %d-page range",
					k, n, g, rows, tableRows(k, g), n)
			}
		}
	}
}

// FuzzBucketKernel builds a page file and a selector batch from the fuzz
// input and checks every accumulator of the bucketed kernel, over the whole
// file and over a sub-range, against the byte-at-a-time reference.
func FuzzBucketKernel(f *testing.F) {
	f.Add(uint16(13), uint8(13), uint8(5), uint16(3), uint16(11), int64(1))
	f.Add(uint16(1), uint8(1), uint8(1), uint16(0), uint16(1), int64(2))
	f.Add(uint16(900), uint8(8), uint8(8), uint16(7), uint16(899), int64(3))
	f.Add(uint16(300), uint8(31), uint8(17), uint16(9), uint16(200), int64(4))
	f.Fuzz(func(t *testing.T, n uint16, ps, k uint8, start, end uint16, seed int64) {
		if n == 0 || ps == 0 || k == 0 || n > 2048 || k > 64 {
			t.Skip()
		}
		pages := makePages(int(n), int(ps), seed)
		rows, err := loadRows(src(pages, int(ps)))
		if err != nil {
			t.Fatal(err)
		}
		sels := randomSelectors(rand.New(rand.NewSource(seed)), int(k), int(n))
		var bt bucketTable
		accs := newAccs(int(k), int(ps))
		answerAll(rows, sels, accs, &bt)
		checkAccs(t, "whole file", pages, int(ps), sels, accs, 0, int(n))
		lo, hi := int(start)%int(n), int(end)%(int(n)+1)
		if lo < hi {
			accs := newAccs(int(k), int(ps))
			answerAllRange(rows, sels, accs, lo, hi, &bt)
			checkAccs(t, "range", pages, int(ps), sels, accs, lo, hi)
		}
	})
}

// TestKernelSharesResidentPages pins the kernel's no-copy guarantee and
// its two fallbacks. Over a resident *pagefile.File, NewXORPIR folds the
// file's own pages: it allocates a small fraction of the file, and each
// row is the page the file returned. Short pages are copied zero-padded,
// leaving the source's spare capacity untouched, and a disk-backed source
// answers byte-exact from the pages its reads returned.
func TestKernelSharesResidentPages(t *testing.T) {
	t.Run("resident", func(t *testing.T) {
		const n, ps = 1024, 4096 // 4 MiB
		f := pagefile.NewFile("Fi", ps)
		for _, p := range makePages(n, ps, 61) {
			f.MustAppendPage(p)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x, err := NewXORPIR(f)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= n*ps/16 {
			t.Fatalf("NewXORPIR allocated %d bytes over a %d-byte resident file, want < %d",
				alloc, n*ps, n*ps/16)
		}
		for i, row := range x.rows {
			if p, _ := f.Page(i); &row[0] != &p[0] {
				t.Fatalf("row %d is a copy of the file's page", i)
			}
		}
		got, err := readBatch(context.Background(), x, []int{0, 500, n - 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range []int{0, 500, n - 1} {
			if want, _ := f.Page(p); !bytes.Equal(got[i], want) {
				t.Fatalf("page %d wrong", p)
			}
		}
	})
	t.Run("short pages", func(t *testing.T) {
		const ps = 13
		backing := make([]byte, 2*ps)
		for i := range backing {
			backing[i] = 0xA5
		}
		var pages, padded [][]byte
		for l := 0; l <= ps; l++ {
			p := bytes.Repeat([]byte{byte(l + 1)}, l)
			if l == 5 {
				p = backing[: l : 2*ps] // spare capacity a careless pad would write into
				copy(p, bytes.Repeat([]byte{6}, l))
			}
			pages = append(pages, p)
			padded = append(padded, append(append([]byte(nil), p...), make([]byte, ps-l)...))
		}
		x, err := NewXORPIR(src(pages, ps))
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(pages))
		for i := range all {
			all[i] = i
		}
		got, err := readBatch(context.Background(), x, all)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pages {
			if !bytes.Equal(got[i], padded[i]) {
				t.Fatalf("%d-byte page decoded to %x, want %x", len(pages[i]), got[i], padded[i])
			}
		}
		for i, b := range backing[5:] {
			if b != 0xA5 {
				t.Fatalf("padding wrote byte %d of the source's spare capacity", 5+i)
			}
		}
	})
	t.Run("disk", func(t *testing.T) {
		const n, ps = 300, 24
		pages := makePages(n, ps, 62)
		disk := pagefile.NewDiskFile("Fi", ps, n, bytes.NewReader(bytes.Join(pages, nil)), 0, 4)
		x, err := NewXORPIR(disk)
		if err != nil {
			t.Fatal(err)
		}
		sels := randomSelectors(rand.New(rand.NewSource(63)), 9, n)
		got := newAccs(len(sels), ps)
		if err := x.AnswerShares(context.Background(), sels, got); err != nil {
			t.Fatal(err)
		}
		for j, sel := range sels {
			if want := xorAnswerBytes(pages, ps, sel); !bytes.Equal(got[j], want) {
				t.Fatalf("share %d over the disk file differs from the byte kernel", j)
			}
		}
	})
}
