package pir

import (
	"crypto/subtle"
	"fmt"
	"math/bits"

	"repro/internal/pagefile"
)

// This file is the XOR kernel of the linear-scan PIR store. A PIR answer
// touches the whole file by construction (§2.2), so the server's scan
// throughput is the system's throughput, and the server holds the whole
// file in memory (§3.1); everything here exists to make that scan cheap
// without holding the file twice:
//
//   - loadRows takes the page file's own pages as the kernel's rows: the
//     slices src.Page returns, not copies, so a resident file
//     (*pagefile.File, PageSlice) is folded in place and costs the store no
//     memory beyond the file itself. Only a page shorter than the page size
//     is copied, zero-padded. A source that reads on demand (DiskFile)
//     returns a fresh slice per page, and keeping those costs what a copy
//     would.
//   - Every XOR is crypto/subtle.XORBytes, the standard library's
//     vectorized XOR (assembly on amd64 and arm64), one whole row per call.
//   - answerAll answers k independent selector vectors in ONE pass over
//     the file — the matrix-batching idea of Chor et al. — so a k-page
//     round costs one file scan, not k. Within the pass the XOR work is
//     shared too: a batch answer is the GF(2) product of the selector
//     matrix and the file, so selectors are folded in groups of up to 8
//     and each page is XORed once into the bucket of its membership
//     pattern, not once per query that selects it.
//
// On PI's Fi file (11,321 pages of 4 KiB) a k=8 batch, both replica
// passes, takes about 21.5 ms on one core of a 2-CPU Intel Xeon VM
// (BenchmarkXORPIRBatchRead/single-scan/fi/k=8 at -cpu 1, median of 5
// runs).

// loadRows returns the pages of src as kernel rows of exactly PageSize
// bytes. A full-sized row is the slice src.Page returned — the Reader
// contract keeps it unchanged while a store holds it — and a short page is
// copied and zero-padded, which is XOR-neutral, so answers over padded rows
// decode to exact page bytes.
func loadRows(src pagefile.Reader) ([][]byte, error) {
	n, ps := src.NumPages(), src.PageSize()
	if n == 0 {
		return nil, fmt.Errorf("pir: empty file")
	}
	rows := make([][]byte, n)
	for i := range rows {
		p, err := src.Page(i)
		if err != nil {
			return nil, err
		}
		switch {
		case len(p) > ps:
			return nil, fmt.Errorf("pir: page %d is %d bytes, page size %d", i, len(p), ps)
		case len(p) < ps:
			row := make([]byte, ps)
			copy(row, p)
			p = row
		}
		rows[i] = p
	}
	return rows, nil
}

// maxGroup is the widest selector group the bucketed kernel folds at once:
// 2^8 membership patterns per group, so a pattern is one byte.
const maxGroup = 8

// bucketTable is the working set of the pattern-bucketed kernel: one row per
// multi-bit membership pattern of each selector group. Single-bit patterns
// need no row of their own — the bucket for "selector j only" is
// accumulator j itself. A table belongs to one scan at a time: a store
// keeps one in each xorScratch, for the serial scan or a parallel scan's
// first segment, and one per further segment in each scanTask.
type bucketTable struct {
	buf  []byte   // flat backing of the multi-bit pattern rows
	rows [][]byte // rows[grp<<g|pattern]: that pattern's bucket (nil for 0)
}

// layout points the table's rows at this scan's accumulators and at zeroed
// multi-bit pattern rows, growing buf to exactly what k selectors in groups
// of g over rows of ps bytes need.
func (bt *bucketTable) layout(accs [][]byte, g, ps int) {
	k, stride := len(accs), 1<<g
	need := tableRows(k, g)
	if cap(bt.buf) < need*ps {
		bt.buf = make([]byte, need*ps)
	}
	bt.buf = bt.buf[:need*ps]
	clear(bt.buf)
	ngroups := (k + g - 1) / g
	if cap(bt.rows) < ngroups*stride {
		bt.rows = make([][]byte, ngroups*stride)
	}
	bt.rows = bt.rows[:ngroups*stride]
	off := 0
	for j0, base := 0, 0; j0 < k; j0, base = j0+g, base+stride {
		for m := 1; m < 1<<min(g, k-j0); m++ {
			if m&(m-1) == 0 {
				bt.rows[base+m] = accs[j0+bits.TrailingZeros(uint(m))]
			} else {
				bt.rows[base+m] = bt.buf[off : off+ps]
				off += ps
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
// stretch of file it folds). It is a function of public shape only (k and
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

// answerAll answers k selector vectors in ONE pass over rows (see
// answerAllRange). accs[j] must be one row long and zeroed by the caller;
// bt is the caller's bucket table.
func answerAll(rows, sels, accs [][]byte, bt *bucketTable) {
	answerAllRange(rows, sels, accs, 0, len(rows), bt)
}

// answerAllRange XORs into accs[j] the rows in [start, end) that sels[j]
// selects — the unit of work both the serial scan and one parallel-scan
// segment fold (see parallel.go). Concurrent ranges only read the shared
// rows; every write goes to the range's own accumulators and table.
//
// Selectors are folded in groups of g (groupWidth). Each page is loaded
// once; per group, its g selector bits form a membership pattern, and the
// row is XORed once into that pattern's bucket (pattern 0 is skipped). A
// halving pass then turns the 2^g buckets into the g answers: accumulator
// j takes the XOR of the upper half of the patterns (those with bit j set),
// the upper half folds into the lower half, and the pass recurses on it. A
// k=8 batch thus costs about one page-XOR per page instead of four.
func answerAllRange(rows, sels, accs [][]byte, start, end int, bt *bucketTable) {
	k := len(sels)
	if k == 0 || start >= end {
		return
	}
	g := groupWidth(k, end-start)
	bt.layout(accs, g, len(accs[0]))
	stride := 1 << g
	for p := start; p < end; p++ {
		byteIdx, shift := p>>3, uint(p&7)
		row := rows[p]
		for j0, base := 0, 0; j0 < k; j0, base = j0+g, base+stride {
			pat := 0
			for i, sel := range sels[j0:min(j0+g, k)] {
				pat |= int(sel[byteIdx]>>shift&1) << i
			}
			if pat != 0 {
				bucket := bt.rows[base+pat]
				subtle.XORBytes(bucket, bucket, row)
			}
		}
	}
	for j0, base := 0, 0; j0 < k; j0, base = j0+g, base+stride {
		pats := bt.rows[base : base+1<<min(g, k-j0)]
		// For h = 2^i, pats[h] is accumulator j0+i, and the rest of
		// [h, 2h) is the upper half this step folds.
		for h := len(pats) / 2; h > 1; h /= 2 {
			for m := 1; m < h; m++ {
				subtle.XORBytes(pats[h], pats[h], pats[h+m])
				subtle.XORBytes(pats[m], pats[m], pats[h+m])
			}
		}
	}
}

// xorAnswerBytes is the byte-at-a-time reference kernel over [][]byte
// pages — the pre-vectorized implementation, kept as the correctness oracle
// for the equivalence tests and the baseline BenchmarkXORAnswer compares
// the kernel against.
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
