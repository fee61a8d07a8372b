package pir

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkXORAnswer compares the two XOR scan kernels answering one
// selector over the same file: the byte-at-a-time baseline versus the
// store's kernel, which folds the same page rows with crypto/subtle.XORBytes.
// pages/s counts pages *scanned* per second — the server-side figure of
// merit, since a PIR answer touches the whole file by construction.
func BenchmarkXORAnswer(b *testing.B) {
	const n, ps = 2048, 1024
	pages := makePages(n, ps, 7)
	rows, err := loadRows(src(pages, ps))
	if err != nil {
		b.Fatal(err)
	}
	sel := make([]byte, (n+7)/8)
	rand.New(rand.NewSource(8)).Read(sel)

	b.Run("bytes", func(b *testing.B) {
		b.SetBytes(n * ps)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			xorAnswerBytes(pages, ps, sel)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	})
	b.Run("rows", func(b *testing.B) {
		sels, accs := [][]byte{sel}, [][]byte{make([]byte, ps)}
		var bt bucketTable
		b.SetBytes(n * ps)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(accs[0])
			answerAll(rows, sels, accs, &bt)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
	})
}

// BenchmarkXORPIRBatchRead compares answering a k-page round with k
// independent full-file scans (scan-per-query: one one-page batch each)
// against one multi-query single-scan batch. pages/s counts
// *retrieved* pages per second: single-scan throughput should grow with k
// while scan-per-query stays flat, i.e. batch cost scales sublinearly in k.
func BenchmarkXORPIRBatchRead(b *testing.B) {
	// 32 MB of pages: larger than the last-level cache, so the benchmark
	// measures what deployment measures — memory-bandwidth-bound scans.
	const n, ps = 32768, 1024
	pages := makePages(n, ps, 9)
	x, err := NewXORPIR(src(pages, ps))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 4, 16, 64} {
		batch := make([]int, k)
		for i := range batch {
			batch[i] = (i * 31) % n
		}
		b.Run(fmt.Sprintf("scan-per-query/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range batch {
					if _, err := readPage(x, p); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
		})
		b.Run(fmt.Sprintf("single-scan/k=%d", k), func(b *testing.B) {
			benchSingleScan(b, x, batch, ps)
		})
	}
	// PI's Fi file: about 11.3k pages of 4 KiB, fetched as one k=8 batch
	// per query — the shape the scan-bound end-to-end workload serves.
	const fiPages, fiPS = 11321, 4096
	fi, err := NewXORPIR(src(makePages(fiPages, fiPS, 10), fiPS))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single-scan/fi/k=8", func(b *testing.B) {
		benchSingleScan(b, fi, []int{0, 1400, 2800, 4200, 5600, 7000, 8400, 11320}, fiPS)
	})
}

// benchSingleScan times steady-state ReadBatchInto of batch against x.
func benchSingleScan(b *testing.B, x *XORPIR, batch []int, ps int) {
	ctx := context.Background()
	dst := make([][]byte, len(batch))
	for i := range dst {
		dst[i] = make([]byte, ps)
	}
	// Warm the scratch pool so allocs/op reflects steady state even at one
	// iteration.
	if err := x.ReadBatchInto(ctx, batch, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.ReadBatchInto(ctx, batch, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch))*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
}

// BenchmarkScanParallel sweeps the segmented parallel kernel across worker
// widths and batch sizes on a 64 MiB file — far beyond any last-level
// cache, so each worker streams its own segment of DRAM and the sweep
// measures how far the machine's memory bandwidth exceeds one core's.
// workers=1 is the serial kernel (the exact pre-parallel code path); pages/s
// counts pages scanned per second, the serving-capacity figure of merit.
// Run with -cpu to pin the schedulable core count: on an 8-core machine
// `-cpu 8` at workers=8 should deliver well over 2x the workers=1 rate.
func BenchmarkScanParallel(b *testing.B) {
	const n, ps = 65536, 1024 // 64 MiB
	pages := makePages(n, ps, 11)
	rows, err := loadRows(src(pages, ps))
	if err != nil {
		b.Fatal(err)
	}
	g := newScanGroup(8, n)
	var bt bucketTable
	rng := rand.New(rand.NewSource(12))
	for _, k := range []int{1, 8} {
		sels := make([][]byte, k)
		accs := make([][]byte, k)
		for i := range sels {
			sels[i] = make([]byte, (n+7)/8)
			rng.Read(sels[i])
			accs[i] = make([]byte, ps)
		}
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("k=%d/workers=%d", k, w), func(b *testing.B) {
				b.SetBytes(n * ps)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, acc := range accs {
						clear(acc)
					}
					if w == 1 {
						answerAll(rows, sels, accs, &bt)
					} else {
						g.answerAllParallel(rows, sels, accs, &bt, w)
					}
				}
				b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "pages/s")
			})
		}
	}
}

func BenchmarkSqrtORAMRead(b *testing.B) {
	pages := makePages(256, 4096, 1)
	o, err := NewSqrtORAM(src(pages, 4096), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Read(i % 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXORPIRRead(b *testing.B) {
	pages := makePages(256, 4096, 2)
	x, err := NewXORPIR(src(pages, 4096))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readPage(x, i%256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKOPIRReadBit(b *testing.B) {
	pages := makePages(16, 1, 3)
	k, err := NewKOPIR(src(pages, 1), 256)
	if err != nil {
		b.Fatal(err)
	}
	// A one-page batch of 1-byte pages is eight bit rounds.
	ctx, dst := context.Background(), [][]byte{make([]byte, 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.ReadBatchInto(ctx, []int{i % 16}, dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(8*b.N), "ns/bit")
}

func BenchmarkPlainRead(b *testing.B) {
	pages := makePages(256, 4096, 4)
	p := NewPlain(src(pages, 4096))
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readPage(p, i%256); err != nil {
			b.Fatal(err)
		}
	}
}
