package main

import (
	"fmt"
	"math"
	"time"
)

// metric is one named figure with its unit.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // how it was taken, printed in the report only
}

// measurement is everything one run collected: the results of the measured
// window and the registry and process deltas around it.
type measurement struct {
	w       workload
	d       *deployment
	setup   setupTimes
	results []result
	elapsed time.Duration // from the first send to the last query's return

	daemons []promDelta // one per daemon registry
	client  promDelta   // process-default registry: client and fleet series
	proc0   procSample
	proc1   procSample
	kernelN time.Duration // summed XOR store scan time (traced runs)
	peak    int64         // most queries in flight at once
	roof    float64       // memory roof, GB/s (traced runs)
	wrong   int

	setupPeakMiB float64   // peak RSS of the set-ups
	servePeakMiB float64   // peak RSS from the end of set-up to the end of the window
	rss          []float64 // RSS samples over the window, MiB
}

// counts tallies the results.
func (m *measurement) counts() (attempted, ok, correct int) {
	for _, r := range m.results {
		attempted++
		if r.ok {
			ok++
		}
		if r.correct {
			correct++
		}
	}
	return
}

func (m *measurement) daemonSum(name string, want map[string]string) float64 {
	var s float64
	for _, d := range m.daemons {
		s += d.sum(name, want)
	}
	return s
}

// daemonMean is the mean observation, in the family's unit, of a histogram
// over every daemon's delta.
func (m *measurement) daemonMean(name string) float64 {
	return ratio(m.daemonSum(name+"_sum", nil), m.daemonSum(name+"_count", nil))
}

// replicaScans is the PIR scans the first fleet replica ran per query, and
// how many other replicas ran a different number: every share fetch goes to
// every replica, so any mismatch means a replica missed work. Both are 0
// outside the fleet.
func (m *measurement) replicaScans() (perQuery float64, mismatch int) {
	if m.w.replicas == 0 || len(m.results) == 0 {
		return 0, 0
	}
	first := m.daemons[0].sum("privsp_pir_scans_total", nil)
	for _, d := range m.daemons[1:] {
		if d.sum("privsp_pir_scans_total", nil) != first {
			mismatch++
		}
	}
	return first / float64(len(m.results)), mismatch
}

// blocks is how many equal slices of the measured window the closed-loop
// rates and the median latency are computed over; reporting the median
// slice keeps a few seconds of interference from a neighbour on a shared
// machine from moving the run's figure.
const blocks = 5

// blockMedians splits the window into equal slices by completion time and
// returns the median over slices of each slice's correct completions per
// second, completions within the latency limit per second, and median
// latency in ms.
func (m *measurement) blockMedians() (qps, goodput, p50 float64) {
	width := m.elapsed / blocks
	var rates, good, meds []float64
	for b := 0; b < blocks; b++ {
		lo, hi := time.Duration(b)*width, time.Duration(b+1)*width
		if b == blocks-1 {
			hi = m.elapsed + 1
		}
		var lats []float64
		correct, within := 0, 0
		for _, r := range m.results {
			if !r.ok || r.done < lo || r.done >= hi {
				continue
			}
			lats = append(lats, ms(r.lat))
			if r.correct {
				correct++
				if r.lat <= m.w.limit {
					within++
				}
			}
		}
		rates = append(rates, float64(correct)/width.Seconds())
		good = append(good, float64(within)/width.Seconds())
		meds = append(meds, median(lats))
	}
	return median(rates), median(good), median(meds)
}

// tail is the workload's tail percentile of query latency, or the highest
// lower one with minBeyond samples beyond it, described for the report. It
// is printed but not gated: on a shared 2-CPU machine it moves by 15-30%
// from run to run, more than any bound could allow.
func (m *measurement) tail() (float64, string) {
	var lats []float64
	for _, r := range m.results {
		if r.ok {
			lats = append(lats, ms(r.lat))
		}
	}
	sorted := sortedCopy(lats)
	if v, ok := tailQuantile(sorted, m.w.tailQ); ok {
		return v, fmt.Sprintf("p%g of %d samples", 100*m.w.tailQ, len(sorted))
	}
	q, v, _ := highestTail(sorted, 0.99, 0.95, 0.9, 0.5)
	return v, fmt.Sprintf("p%g: only it has %d samples beyond it (of %d)", 100*q, minBeyond, len(sorted))
}

// endToEnd computes the metrics a user of the system sees.
func (m *measurement) endToEnd() []metric {
	_, ok, correct := m.counts()
	var resp []float64
	within := 0
	for _, r := range m.results {
		if !r.ok {
			continue
		}
		resp = append(resp, ms(r.stats.Response()))
		if r.correct && r.lat <= m.w.limit {
			within++
		}
	}
	// Closed loop, rates are medians over slices of the window. Open loop,
	// a slice's completions follow its share of the bursty schedule, so
	// rates are whole-window totals.
	qps, goodput, p50 := m.blockMedians()
	rateNote := fmt.Sprintf("median of %d slices", blocks)
	if m.w.replicas > 0 {
		qps, goodput = float64(correct)/m.elapsed.Seconds(), float64(within)/m.elapsed.Seconds()
		rateNote = "whole window"
	}
	return []metric{
		{name: "setup_s", unit: "s", value: m.setup.totalS, note: fmt.Sprintf("median of %d set-ups", setupReps)},
		{name: "db_bytes", unit: "B", value: float64(m.d.db.TotalBytes())},
		{name: "rss_mib", unit: "MiB", value: median(m.rss), note: fmt.Sprintf("median of %d samples over the window", len(m.rss))},
		{name: "query_p50_ms", unit: "ms", value: p50, note: fmt.Sprintf("median of %d slices' medians; %d samples", blocks, ok)},
		{name: "throughput_qps", unit: "1/s", value: qps, note: rateNote},
		{name: "goodput_qps", unit: "1/s", value: goodput, note: fmt.Sprintf("within %v, %s", m.w.limit, rateNote)},
		{name: "paper_response_ms", unit: "ms", value: median(resp), note: "median Stats.Response(): the paper's modelled deployment"},
	}
}

// perLayer computes the traced split.
func (m *measurement) perLayer() []metric {
	attempted, ok, _ := m.counts()
	n := float64(attempted)

	// Client-side spans of the traced queries.
	var selfMs, headerMs, readUs, readPerQ, clientMs, latTraced, latPlain []float64
	var rounds, pages, readCalls, readSum, querySum float64
	traced := 0
	for _, r := range m.results {
		if !r.ok {
			continue
		}
		clientMs = append(clientMs, ms(r.stats.Client))
		rounds += float64(r.stats.Rounds)
		if !r.traced {
			latPlain = append(latPlain, ms(r.lat))
			continue
		}
		latTraced = append(latTraced, ms(r.lat))
		traced++
		root := r.spans[0]
		var backend []interval
		var qRead time.Duration
		for _, s := range r.spans[1:] {
			switch s.name {
			case "header":
				headerMs = append(headerMs, ms(s.dur()))
				backend = append(backend, interval{s.start, s.end})
			case "read":
				readUs = append(readUs, us(s.dur()))
				backend = append(backend, interval{s.start, s.end})
				qRead += s.dur()
				pages += float64(s.pages)
				readCalls++
			}
		}
		selfMs = append(selfMs, ms(selfTime(interval{root.start, root.end}, backend)))
		readPerQ = append(readPerQ, ms(qRead))
		readSum += float64(qRead)
		querySum += float64(root.dur())
	}
	nt := float64(traced)
	readSorted := sortedCopy(readUs)
	readP99, okTail := tailQuantile(readSorted, 0.99)
	if !okTail {
		_, readP99, _ = highestTail(readSorted, 0.95, 0.9, 0.5)
	}

	// Daemon side: deltas of every daemon's registry.
	frames := m.daemonSum("privsp_server_scan_seconds_count", nil)
	serverPerFrame := ratio(m.daemonSum("privsp_server_scan_seconds_sum", nil)+
		m.daemonSum("privsp_server_encode_seconds_sum", nil), frames)
	flushes := m.daemonSum("privsp_scan_flush_total", nil)
	flush := func(reason string) float64 {
		return ratio(m.daemonSum("privsp_scan_flush_total", map[string]string{"reason": reason}), flushes)
	}
	acquired := m.daemonSum("privsp_pool_wait_seconds_count", nil)
	par := m.daemonSum("privsp_scan_route_total", map[string]string{"kernel": "parallel"})
	ser := m.daemonSum("privsp_scan_route_total", map[string]string{"kernel": "serial"})

	// The XOR kernel: pages it scanned, and bytes over summed scan time.
	// Plain stores read the requested pages without a scan; they count
	// nothing here.
	var xorPages, xorBytes float64
	if m.w.xorpir {
		for _, f := range m.d.db.LBS().Files {
			p := m.daemonSum("privsp_pir_pages_scanned_total", map[string]string{"file": f.Name()})
			xorPages += p
			xorBytes += p * float64(f.PageSize())
		}
	}
	kernelGBps := ratio(xorBytes, m.kernelN.Seconds()) / 1e9

	replicaScans, mismatch := m.replicaScans()

	var late []float64
	for _, r := range m.results {
		late = append(late, ms(r.late))
	}
	cpu := m.proc1.cpu - m.proc0.cpu
	overhead := ratio(median(latTraced), median(latPlain)) - 1
	if len(latTraced) == 0 || len(latPlain) == 0 {
		overhead = 0
	}

	return []metric{
		{name: "bench.gen_late_p99_ms", unit: "ms", value: quantile(sortedCopy(late), 0.99), note: "open loop: send after due time; closed loop: gap between a return and the next send"},
		{name: "bench.inflight_max", unit: "count", value: float64(m.peak)},
		{name: "bench.trace_overhead_frac", unit: "ratio", value: overhead, note: "median latency, traced vs untraced queries"},
		{name: "bench.mem_roof_gbps", unit: "GB/s", value: m.roof},
		{name: "bench.wrong_answers", unit: "count", value: float64(m.wrong), note: "warm-up included"},
		{name: "bench.failed_frac", unit: "ratio", value: ratio(float64(attempted-ok), n)},

		{name: "scheme.self_ms_p50", unit: "ms", value: median(selfMs)},
		{name: "scheme.client_ms_p50", unit: "ms", value: median(clientMs)},
		{name: "scheme.rounds_per_query", unit: "count", value: ratio(rounds, float64(ok))},
		{name: "scheme.pages_per_query", unit: "count", value: ratio(pages, nt)},

		{name: "backend.header_ms_p50", unit: "ms", value: median(headerMs)},
		{name: "backend.read_calls_per_query", unit: "count", value: ratio(readCalls, nt)},
		{name: "backend.read_us_p50", unit: "us", value: quantile(readSorted, 0.5)},
		{name: "backend.read_us_p99", unit: "us", value: readP99},
		{name: "backend.read_ms_per_query", unit: "ms", value: mean(readPerQ)},
		{name: "backend.read_frac_of_query", unit: "ratio", value: ratio(readSum, querySum)},
		{name: "wire.overhead_us_mean", unit: "us", value: mean(readUs) - serverPerFrame*1e6, note: "read span minus daemon scan+encode per frame"},

		{name: "server.query_ms_mean", unit: "ms", value: 1e3 * m.daemonMean("privsp_server_query_seconds")},
		{name: "server.scan_us_mean", unit: "us", value: 1e6 * m.daemonMean("privsp_server_scan_seconds"), note: "includes the pool wait"},
		{name: "server.encode_us_mean", unit: "us", value: 1e6 * m.daemonMean("privsp_server_encode_seconds")},
		{name: "server.bytes_written_per_query", unit: "B", value: m.daemonSum("privsp_server_bytes_written_total", nil) / n},
		{name: "server.frames_per_query", unit: "count", value: m.daemonSum("privsp_server_frames_written_total", nil) / n},
		{name: "server.shed_count", unit: "count", value: m.daemonSum("privsp_shed_total", nil)},
		{name: "server.busy_count", unit: "count", value: m.daemonSum("privsp_busy_sent_total", nil)},
		{name: "server.cancelled_count", unit: "count", value: m.daemonSum("privsp_server_query_cancelled_total", nil)},

		{name: "lbs.pool_waited_frac", unit: "ratio", value: ratio(acquired-histAtMost(m.daemons, "privsp_pool_wait_seconds", nil, 0), acquired)},
		{name: "lbs.pool_wait_share_of_scan", unit: "ratio", value: ratio(m.daemonSum("privsp_pool_wait_seconds_sum", nil), m.daemonSum("privsp_server_scan_seconds_sum", nil))},
		{name: "lbs.scans_per_fetch", unit: "ratio", value: ratio(m.daemonSum("privsp_scan_sched_scans_total", nil), m.daemonSum("privsp_scan_sched_fetches_total", nil))},
		{name: "lbs.flush_lone_frac", unit: "ratio", value: flush("lone")},
		{name: "lbs.flush_chain_frac", unit: "ratio", value: flush("chain")},
		{name: "lbs.flush_window_frac", unit: "ratio", value: flush("window")},
		{name: "lbs.flush_cap_frac", unit: "ratio", value: flush("cap")},
		{name: "lbs.flush_deadline_frac", unit: "ratio", value: flush("deadline")},
		{name: "lbs.batch_queries_mean", unit: "count", value: ratio(m.daemonSum("privsp_scan_batch_queries_sum", nil), m.daemonSum("privsp_scan_batch_queries_count", nil))},
		{name: "lbs.parallel_scan_frac", unit: "ratio", value: ratio(par, par+ser)},

		{name: "pir.pages_scanned_per_query", unit: "count", value: xorPages / n},
		{name: "pir.kernel_gbps", unit: "GB/s", value: kernelGBps},
		{name: "pir.kernel_roof_frac", unit: "ratio", value: ratio(kernelGBps, m.roof)},

		{name: "fleet.fanout_share_of_read", unit: "ratio", value: ratio(1e6*ratio(m.client.sum("privsp_fleet_fanout_seconds_sum", nil), m.client.sum("privsp_fleet_fanout_seconds_count", nil)), mean(readUs)), note: "mean paired fan-out over mean read span"},
		{name: "fleet.replica_scans_per_query", unit: "count", value: replicaScans},
		{name: "fleet.replica_scans_mismatch", unit: "count", value: float64(mismatch)},
		{name: "fleet.degraded_count", unit: "count", value: m.client.sum("privsp_fleet_degraded_queries_total", nil)},
		{name: "fleet.replica_error_count", unit: "count", value: m.client.sum("privsp_fleet_replica_errors_total", nil)},

		{name: "process.cpu_ms_per_query", unit: "ms", value: ms(cpu) / n},
		{name: "process.alloc_kib_per_query", unit: "KiB", value: float64(m.proc1.totalAlloc-m.proc0.totalAlloc) / 1024 / n},
		{name: "process.gc_cycles_per_100q", unit: "count", value: 100 * float64(m.proc1.numGC-m.proc0.numGC) / n},
		{name: "process.peak_rss_mib", unit: "MiB", value: m.servePeakMiB, note: "from the end of set-up to the end of the window"},
		{name: "process.setup_peak_rss_mib", unit: "MiB", value: m.setupPeakMiB},

		{name: "build.network_s", unit: "s", value: m.setup.networkS},
		{name: "build.scheme_s", unit: "s", value: m.setup.buildS},
		{name: "host.stores_s", unit: "s", value: m.setup.hostS},
	}
}

// finite replaces NaN and infinities, which JSON cannot carry, with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
