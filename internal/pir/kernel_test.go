package pir

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// oddShapes are the page-file geometries most likely to break a word-wide
// kernel: page counts that are not a multiple of 8 (partial selector byte),
// page sizes that are not a multiple of 8 (partial trailing word), and the
// degenerate single-page file.
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

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for size := 1; size <= 40; size++ {
		src := make([]byte, size)
		rng.Read(src)
		words := make([]uint64, (size+7)/8)
		packWords(words, src)
		got := make([]byte, size)
		unpackWords(got, words)
		if !bytes.Equal(got, src) {
			t.Fatalf("size %d: roundtrip mismatch", size)
		}
	}
}

func TestXORBytesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for size := 1; size <= 40; size++ {
		a := make([]byte, size)
		b := make([]byte, size)
		rng.Read(a)
		rng.Read(b)
		want := make([]byte, size)
		for i := range want {
			want[i] = a[i] ^ b[i]
		}
		xorBytes(a, b)
		if !bytes.Equal(a, want) {
			t.Fatalf("size %d: xorBytes mismatch", size)
		}
	}
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
func checkAccs(t *testing.T, what string, pages [][]byte, ps int, sels [][]byte, accs [][]uint64, start, end int) {
	t.Helper()
	got := make([]byte, ps)
	for j, sel := range sels {
		unpackWords(got, accs[j])
		if want := rangeAnswer(pages, ps, sel, start, end); !bytes.Equal(got, want) {
			t.Fatalf("%s: selector %d of %d over pages [%d,%d) differs from the byte kernel",
				what, j, len(sels), start, end)
		}
	}
}

// checkTableSize fails t if the bucket table's rows hold more words than
// the arena range the last scan folded.
func checkTableSize(t *testing.T, what string, bt *bucketTable, rangeWords int) {
	t.Helper()
	if len(bt.buf) > rangeWords {
		t.Fatalf("%s: bucket table of %d words for a %d-word range", what, len(bt.buf), rangeWords)
	}
}

// newAccs returns k zeroed accumulators of wpp words.
func newAccs(k, wpp int) [][]uint64 {
	accs := make([][]uint64, k)
	for j := range accs {
		accs[j] = make([]uint64, wpp)
	}
	return accs
}

// TestWordKernelMatchesByteKernel checks the pattern-bucketed arena kernel
// against the byte-at-a-time reference implementation across odd shapes and
// batch sizes, over whole files and over ranges that start mid selector
// byte. One bucket table serves every call, as a store's scratch does, and
// after each call it must hold no more words than the range it folded.
func TestWordKernelMatchesByteKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var bt bucketTable
	for _, shape := range kernelShapes {
		pages := makePages(shape.n, shape.ps, int64(shape.n*1000+shape.ps))
		arena, err := newWordArena(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range kernelKs {
			sels := randomSelectors(rng, k, shape.n)
			accs := newAccs(k, arena.wpp)
			arena.answerAll(sels, accs, &bt)
			what := fmt.Sprintf("%dx%d k=%d", shape.n, shape.ps, k)
			checkAccs(t, what, pages, shape.ps, sels, accs, 0, shape.n)
			checkTableSize(t, what, &bt, shape.n*arena.wpp)
			for _, r := range [][2]int{{1, shape.n}, {3, shape.n - 2}, {shape.n/3 | 5, shape.n}} {
				if r[0] >= r[1] {
					continue
				}
				accs := newAccs(k, arena.wpp)
				arena.answerAllRange(sels, accs, r[0], r[1], &bt)
				checkAccs(t, what, pages, shape.ps, sels, accs, r[0], r[1])
				checkTableSize(t, what, &bt, (r[1]-r[0])*arena.wpp)
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
		arena, err := newWordArena(src(pages, int(ps)))
		if err != nil {
			t.Fatal(err)
		}
		sels := randomSelectors(rand.New(rand.NewSource(seed)), int(k), int(n))
		var bt bucketTable
		accs := newAccs(int(k), arena.wpp)
		arena.answerAll(sels, accs, &bt)
		checkAccs(t, "whole file", pages, int(ps), sels, accs, 0, int(n))
		lo, hi := int(start)%int(n), int(end)%(int(n)+1)
		if lo < hi {
			accs := newAccs(int(k), arena.wpp)
			arena.answerAllRange(sels, accs, lo, hi, &bt)
			checkAccs(t, "range", pages, int(ps), sels, accs, lo, hi)
		}
	})
}

func TestWordArenaPageRoundTrip(t *testing.T) {
	for _, shape := range oddShapes {
		pages := makePages(shape.n, shape.ps, int64(shape.n+shape.ps))
		arena, err := newWordArena(src(pages, shape.ps))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, shape.ps)
		for i := range pages {
			arena.writePage(i, buf)
			if !bytes.Equal(buf, pages[i]) {
				t.Fatalf("%dx%d: page %d corrupted by arena roundtrip", shape.n, shape.ps, i)
			}
		}
	}
}
