package pir

import "sync/atomic"

// scanCounters is the embeddable Store.ScanStats implementation: two
// atomics, recorded on the read path without locks or allocation.
type scanCounters struct {
	pagesScanned atomic.Uint64
	scans        atomic.Uint64
}

// recordScan accounts one server pass touching the given pages-equivalent
// work.
func (c *scanCounters) recordScan(pages, scans uint64) {
	c.pagesScanned.Add(pages)
	c.scans.Add(scans)
}

// ScanStats implements Store.
func (c *scanCounters) ScanStats() (pagesScanned, scans uint64) {
	return c.pagesScanned.Load(), c.scans.Load()
}
