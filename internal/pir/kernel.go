package pir

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/pagefile"
)

// This file is the word-wide XOR kernel shared by the linear-scan PIR
// stores and the ORAM re-encryption paths. A PIR answer touches the whole
// file by construction (§2.2), so the server's scan throughput is the
// system's throughput; everything here exists to make that scan cheap:
//
//   - wordArena flattens a page file into one contiguous []uint64, so a
//     scan walks a single allocation in address order (no per-page pointer
//     chase) and XORs eight bytes per operation instead of one.
//   - answerAll answers k independent selector vectors in ONE pass over
//     the arena — the matrix-batching idea of Chor et al. — so a k-page
//     round costs one file scan, not k. Within the pass the XOR work is
//     shared too: a batch answer is the GF(2) product of the selector
//     matrix and the file, so selectors are folded in groups of up to 8
//     and each page is XORed once into the bucket of its membership
//     pattern, not once per query that selects it.
//   - xorBytes is the byte-slice face of the word-wide XOR, used by the
//     sqrt-ORAM re-encryption path to fold plaintext into a materialized
//     keystream (see SqrtORAM.encryptInto, which together with in-place
//     slot reuse makes the per-read shelter rewrite allocation-free).
//
// On PI's Fi file (11,321 pages of 4 KiB) one k=8 pass takes about 9.5 ms
// on one core of a 2-CPU Intel Xeon VM, against about 31 ms for the
// per-query fold it replaced (BenchmarkXORPIRBatchRead/single-scan/fi/k=8
// at -cpu 1 runs both replica passes: about 19 ms against 62 ms).

// wordArena is a page file flattened into uint64 lanes: page i occupies
// words [i*wpp, (i+1)*wpp). Pages whose byte size is not a multiple of 8
// are zero-padded into their final word, which is XOR-neutral, so answers
// over padded rows decode back to exact page bytes.
type wordArena struct {
	words    []uint64
	wpp      int // words per page
	numPages int
	pageSize int
}

// newWordArena flattens the pages of src.
func newWordArena(src pagefile.Reader) (*wordArena, error) {
	n, ps := src.NumPages(), src.PageSize()
	if n == 0 {
		return nil, fmt.Errorf("pir: empty file")
	}
	wpp := (ps + 7) / 8
	a := &wordArena{
		words:    make([]uint64, n*wpp),
		wpp:      wpp,
		numPages: n,
		pageSize: ps,
	}
	for i := 0; i < n; i++ {
		p, err := src.Page(i)
		if err != nil {
			return nil, err
		}
		if len(p) > ps {
			return nil, fmt.Errorf("pir: page %d is %d bytes, page size %d", i, len(p), ps)
		}
		packWords(a.row(i), p)
	}
	return a, nil
}

// row returns page i's word lane.
func (a *wordArena) row(i int) []uint64 {
	return a.words[i*a.wpp : (i+1)*a.wpp]
}

// writePage decodes page i's words back into dst[:pageSize].
func (a *wordArena) writePage(i int, dst []byte) {
	unpackWords(dst[:a.pageSize], a.row(i))
}

// packWords encodes little-endian bytes into words, zero-padding the tail.
func packWords(dst []uint64, src []byte) {
	i, w := 0, 0
	for ; i+8 <= len(src); i, w = i+8, w+1 {
		dst[w] = binary.LittleEndian.Uint64(src[i:])
	}
	if i < len(src) {
		var tail [8]byte
		copy(tail[:], src[i:])
		dst[w] = binary.LittleEndian.Uint64(tail[:])
		w++
	}
	for ; w < len(dst); w++ {
		dst[w] = 0
	}
}

// unpackWords decodes words back to little-endian bytes, dropping the pad.
func unpackWords(dst []byte, src []uint64) {
	i, w := 0, 0
	for ; i+8 <= len(dst); i, w = i+8, w+1 {
		binary.LittleEndian.PutUint64(dst[i:], src[w])
	}
	if i < len(dst) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], src[w])
		copy(dst[i:], tail[:len(dst)-i])
	}
}

// xorWords folds src into acc lane-wise. Both slices must have equal
// length; the explicit reslice lets the compiler elide bounds checks in
// the loop.
func xorWords(acc, src []uint64) {
	if len(acc) != len(src) {
		panic("pir: xorWords length mismatch")
	}
	src = src[:len(acc)]
	for i := range acc {
		acc[i] ^= src[i]
	}
}

// xorBytes folds src into dst word-wide, handling the unaligned tail
// byte-wise. It is the byte-slice face of the kernel, for paths (reply
// combination, ORAM scratch) that work on raw page buffers.
func xorBytes(dst, src []byte) {
	if len(dst) != len(src) {
		panic("pir: xorBytes length mismatch")
	}
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for i := n; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// maxGroup is the widest selector group the bucketed kernel folds at once:
// 2^8 membership patterns per group, so a pattern is one byte.
const maxGroup = 8

// bucketTable is the working set of the pattern-bucketed kernel: one row per
// multi-bit membership pattern of each selector group. Single-bit patterns
// need no row of their own — the bucket for "selector j only" is
// accumulator j itself. A table belongs to one scan at a time: a store
// keeps one in each xorScratch, for the serial scan or a parallel scan's
// first segment, and one per further segment in each arenaTask.
type bucketTable struct {
	buf  []uint64   // flat backing of the multi-bit pattern rows
	rows [][]uint64 // rows[grp<<g|pattern]: that pattern's bucket (nil for 0)
}

// layout points the table's rows at this scan's accumulators and at zeroed
// multi-bit pattern rows, growing buf to exactly what k selectors in groups
// of g need.
func (bt *bucketTable) layout(accs [][]uint64, g, wpp int) {
	k, stride := len(accs), 1<<g
	need := tableRows(k, g)
	if cap(bt.buf) < need*wpp {
		bt.buf = make([]uint64, need*wpp)
	}
	bt.buf = bt.buf[:need*wpp]
	clearWords(bt.buf)
	ngroups := (k + g - 1) / g
	if cap(bt.rows) < ngroups*stride {
		bt.rows = make([][]uint64, ngroups*stride)
	}
	bt.rows = bt.rows[:ngroups*stride]
	off := 0
	for j0, base := 0, 0; j0 < k; j0, base = j0+g, base+stride {
		for m := 1; m < 1<<min(g, k-j0); m++ {
			if m&(m-1) == 0 {
				bt.rows[base+m] = accs[j0+bits.TrailingZeros(uint(m))]
			} else {
				bt.rows[base+m] = bt.buf[off : off+wpp]
				off += wpp
			}
		}
	}
}

// patternRows is the number of table rows a group of g selectors needs: its
// 2^g patterns less the empty one and the g single-bit ones.
func patternRows(g int) int { return 1<<g - 1 - g }

// tableRows is the number of table rows k selectors in groups of g need:
// k/g full groups and a remainder group of k%g selectors (none if empty).
func tableRows(k, g int) int { return k/g*patternRows(g) + patternRows(k%g) }

// groupCost is the page-XOR count, scaled by 2^maxGroup so it stays an
// integer, of folding one group of g selectors over n pages: a page lands in
// a bucket unless its pattern is empty (n(1-2^-g) pages for uniform
// selectors), and each multi-bit pattern row is cleared once and folded
// twice by the halving pass.
func groupCost(g, n int) int {
	return n*(1<<maxGroup-1<<(maxGroup-g)) + 3*patternRows(g)<<maxGroup
}

// groupWidth picks the selector group width for k selectors over an n-page
// range: the g minimizing the page-XOR count, among the widths whose table
// has no more rows than the range has pages (so it is never larger than the
// stretch of arena it folds). It is a function of public shape only (k and
// n), never of selector contents, so every scan of a given shape does the
// same work. g = 1 is the direct fold: one accumulator XOR per (page,
// selecting query) pair and no table.
func groupWidth(k, n int) int {
	best, bestCost := 1, k*groupCost(1, n)
	for g := 2; g <= min(k, maxGroup); g++ {
		if tableRows(k, g) > n {
			continue
		}
		if cost := k/g*groupCost(g, n) + groupCost(k%g, n); cost < bestCost {
			best, bestCost = g, cost
		}
	}
	return best
}

// answerAll answers k selector vectors in ONE pass over the arena (see
// answerAllRange). accs[j] must be len wpp and zeroed by the caller; bt is
// the caller's bucket table.
func (a *wordArena) answerAll(sels [][]byte, accs [][]uint64, bt *bucketTable) {
	a.answerAllRange(sels, accs, 0, a.numPages, bt)
}

// answerAllRange XORs into accs[j] the pages in [start, end) that sels[j]
// selects — the unit of work both the serial scan and one parallel-scan
// segment fold (see parallel.go). Page rows are contiguous and at least a
// cache line apart at any realistic page size, so concurrent ranges never
// share a written line.
//
// Selectors are folded in groups of g (groupWidth). Each page is loaded
// once; per group, its g selector bits form a membership pattern, and the
// row is XORed once into that pattern's bucket (pattern 0 is skipped). A
// halving pass then turns the 2^g buckets into the g answers: accumulator
// j takes the XOR of the upper half of the patterns (those with bit j set),
// the upper half folds into the lower half, and the pass recurses on it. A
// k=8 batch thus costs about one page-XOR per page instead of four.
func (a *wordArena) answerAllRange(sels [][]byte, accs [][]uint64, start, end int, bt *bucketTable) {
	k := len(sels)
	if k == 0 || start >= end {
		return
	}
	g := groupWidth(k, end-start)
	bt.layout(accs, g, a.wpp)
	stride := 1 << g
	for p := start; p < end; p++ {
		byteIdx, shift := p>>3, uint(p&7)
		var row []uint64
		for j0, base := 0, 0; j0 < k; j0, base = j0+g, base+stride {
			pat := 0
			for i, sel := range sels[j0:min(j0+g, k)] {
				pat |= int(sel[byteIdx]>>shift&1) << i
			}
			if pat != 0 {
				if row == nil {
					row = a.row(p)
				}
				xorWords(bt.rows[base+pat], row)
			}
		}
	}
	for j0, base := 0, 0; j0 < k; j0, base = j0+g, base+stride {
		rows := bt.rows[base : base+1<<min(g, k-j0)]
		// For h = 2^i, rows[h] is accumulator j0+i, and the rest of
		// [h, 2h) is the upper half this step folds.
		for h := len(rows) / 2; h > 1; h /= 2 {
			for m := 1; m < h; m++ {
				xorWords(rows[h], rows[h+m])
				xorWords(rows[m], rows[h+m])
			}
		}
	}
}

// xorAnswerBytes is the byte-at-a-time reference kernel over [][]byte
// pages — the pre-arena implementation, kept as the correctness oracle for
// the equivalence tests and the baseline BenchmarkXORAnswer compares the
// word kernel against.
func xorAnswerBytes(pages [][]byte, pageSize int, sel []byte) []byte {
	out := make([]byte, pageSize)
	for i, page := range pages {
		if sel[i/8]&(1<<(i%8)) != 0 {
			for j := range page {
				out[j] ^= page[j]
			}
		}
	}
	return out
}
