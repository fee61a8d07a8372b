package pir

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/pagefile"
)

// KOPIR is single-server computational PIR from the quadratic residuosity
// assumption (Kushilevitz & Ostrovsky, FOCS'97). The file's bits form an
// s×t matrix M. To fetch bit (r*, c*), the client sends t group elements
// y_1..y_t in Z_n^* with Jacobi symbol +1, where y_{c*} is a quadratic
// non-residue and every other y_c a residue. The server returns, per row r,
// z_r = Π_c y_c^{M[r,c]} · w_r² for random w_r. Then z_{r*} is a residue
// iff M[r*,c*] = 0, which the client (knowing the factorization) can test.
// The server sees only Jacobi-+1 elements, indistinguishable under QRA.
//
// This is the "particularly expensive" family of protocols §2.2 alludes to
// (it was behind the first PIR-based spatial method [11]); it is included
// as a genuinely cryptographic member of the PIR toolbox and is practical
// here only for small records — the demo and tests use it accordingly.
type KOPIR struct {
	pages    [][]byte
	numPages int
	pageSize int

	n    *big.Int // public modulus
	p, q *big.Int // client-held factorization
	bits int      // modulus size

	scanCounters
}

// NewKOPIR builds the scheme over the pages of src with the given modulus
// size in bits (512 is fine for tests; real deployments would use 2048+).
// The full plaintext matrix stays in memory: every answer exponentiates
// over every bit.
func NewKOPIR(src pagefile.Reader, modulusBits int) (*KOPIR, error) {
	pages, err := materialize(src)
	if err != nil {
		return nil, err
	}
	pageSize := src.PageSize()
	if len(pages) == 0 {
		return nil, fmt.Errorf("pir: empty file")
	}
	if modulusBits < 32 {
		return nil, fmt.Errorf("pir: modulus %d bits too small", modulusBits)
	}
	p, err := rand.Prime(rand.Reader, modulusBits/2)
	if err != nil {
		return nil, err
	}
	q, err := rand.Prime(rand.Reader, modulusBits/2)
	if err != nil {
		return nil, err
	}
	for p.Cmp(q) == 0 {
		q, err = rand.Prime(rand.Reader, modulusBits/2)
		if err != nil {
			return nil, err
		}
	}
	k := &KOPIR{
		pages:    pages,
		numPages: len(pages),
		pageSize: pageSize,
		n:        new(big.Int).Mul(p, q),
		p:        p, q: q,
		bits: modulusBits,
	}
	return k, nil
}

// sampleQuery builds one bit-round query vector: t Jacobi-+1 elements with
// a non-residue exactly at the wanted column.
func (k *KOPIR) sampleQuery(col int) ([]*big.Int, error) {
	t := k.pageSize * 8
	ys := make([]*big.Int, t)
	for c := 0; c < t; c++ {
		y, err := k.sampleJacobiOne(c == col)
		if err != nil {
			return nil, err
		}
		ys[c] = y
	}
	return ys, nil
}

// sampleJacobiOne samples an element of Z_n^* with Jacobi symbol +1 that is
// a quadratic non-residue iff nonResidue is set.
func (k *KOPIR) sampleJacobiOne(nonResidue bool) (*big.Int, error) {
	for {
		y, err := rand.Int(rand.Reader, k.n)
		if err != nil {
			return nil, err
		}
		if y.Sign() == 0 || new(big.Int).GCD(nil, nil, y, k.n).Cmp(big.NewInt(1)) != 0 {
			continue
		}
		if big.Jacobi(y, k.n) != 1 {
			continue
		}
		if k.isQR(y) != nonResidue {
			return y, nil
		}
	}
}

// isQR tests quadratic residuosity mod n using the factorization (client
// secret): y is a QR mod n=pq iff it is a QR mod both p and q.
func (k *KOPIR) isQR(y *big.Int) bool {
	yp := new(big.Int).Mod(y, k.p)
	yq := new(big.Int).Mod(y, k.q)
	if yp.Sign() == 0 || yq.Sign() == 0 {
		return false
	}
	return big.Jacobi(yp, k.p) == 1 && big.Jacobi(yq, k.q) == 1
}

// serverAnswerRowBatch is the multi-query server computation for one row:
// the row's bits are walked ONCE, and every set bit multiplies the
// matching query element into each query's accumulator — the k-accumulator
// single-scan structure of the batched protocol, applied at row
// granularity. Each accumulator is finally randomized with its own w².
// The real protocol returns all rows (communication O(s·k)); rows are
// independent and the query vectors fixed, so computing only the rows the
// client inspects is equivalent server work per row and keeps tests fast.
// Server knowledge is unchanged: it processes the same query vectors.
func (k *KOPIR) serverAnswerRowBatch(row int, yss [][]*big.Int) []*big.Int {
	zs := make([]*big.Int, len(yss))
	for q := range zs {
		zs[q] = big.NewInt(1)
	}
	pageData := k.pages[row]
	t := k.pageSize * 8
	for c := 0; c < t; c++ {
		if c/8 >= len(pageData) || pageData[c/8]&(1<<(c%8)) == 0 {
			continue
		}
		for q, ys := range yss {
			zs[q].Mul(zs[q], ys[c])
			zs[q].Mod(zs[q], k.n)
		}
	}
	for q := range zs {
		w, _ := rand.Int(rand.Reader, k.n)
		w.Add(w, big.NewInt(2))
		zs[q].Mul(zs[q], new(big.Int).Exp(w, big.NewInt(2), k.n))
		zs[q].Mod(zs[q], k.n)
	}
	return zs
}

// ReadBatchInto implements Store: the batch proceeds in bit-synchronized
// rounds (all queries fetch bit b together), and within a round the page
// matrix is walked once — queries targeting the same row share a single
// pass over that row's bits, each folding the shared data into its own
// accumulator. Every query still samples its own fresh Jacobi-+1 vector per
// round, so the server's view of a batch is exactly k independent queries.
// ctx is checked at bit-round boundaries (the read boundaries of this
// store: one round is one indivisible server exchange).
func (k *KOPIR) ReadBatchInto(ctx context.Context, pages []int, dst [][]byte) error {
	if len(dst) != len(pages) {
		return fmt.Errorf("pir: %d buffers for %d pages", len(dst), len(pages))
	}
	for _, p := range pages {
		if p < 0 || p >= k.numPages {
			return fmt.Errorf("pir: page %d of %d", p, k.numPages)
		}
	}
	if len(pages) == 0 {
		return nil
	}
	for i := range dst {
		clear(dst[i][:k.pageSize])
	}
	// Group query positions by target row, preserving request order, so
	// each distinct row is walked once per round however many queries want
	// it.
	rowOrder := make([]int, 0, len(pages))
	rowQueries := make(map[int][]int, len(pages))
	for i, p := range pages {
		if _, seen := rowQueries[p]; !seen {
			rowOrder = append(rowOrder, p)
		}
		rowQueries[p] = append(rowQueries[p], i)
	}
	if err := k.answerBits(ctx, dst, rowOrder, rowQueries); err != nil {
		return err
	}
	// One database-equivalent pass per batch: in the real protocol the
	// server exponentiates over the full s×t matrix for every query set
	// (the row grouping above is a simulation shortcut, not visible work).
	k.recordScan(uint64(k.numPages), 1)
	return nil
}

// answerBits runs every bit round of a batch, checking ctx at round
// boundaries.
func (k *KOPIR) answerBits(ctx context.Context, dst [][]byte, rowOrder []int, rowQueries map[int][]int) error {
	yss := make([][]*big.Int, 0, 4)
	for bit := 0; bit < k.pageSize*8; bit++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, row := range rowOrder {
			idxs := rowQueries[row]
			yss = yss[:0]
			for range idxs {
				ys, err := k.sampleQuery(bit)
				if err != nil {
					return err
				}
				yss = append(yss, ys)
			}
			zs := k.serverAnswerRowBatch(row, yss)
			for j, i := range idxs {
				if !k.isQR(zs[j]) {
					dst[i][bit/8] |= 1 << (bit % 8)
				}
			}
		}
	}
	return nil
}

// Caps implements Store: reads touch no mutable state, and each bit round
// walks the matrix rows once for the whole batch, so splitting a batch
// multiplies row scans.
func (k *KOPIR) Caps() Caps { return Caps{Concurrent: true, SingleScan: true} }

// NumPages implements Store.
func (k *KOPIR) NumPages() int { return k.numPages }

// PageSize implements Store.
func (k *KOPIR) PageSize() int { return k.pageSize }
