// Command perfbench is the repository's end-to-end benchmark. It hosts the
// privspd daemon in its own process, over loopback, and drives one traffic
// shape (a workload) through the public privsp query API:
//
//	perfbench --workload pi-scan --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the same workload with bench-side spans around each layer's calls and
// prints the per-layer split. Every answer is checked against Dijkstra and
// every daemon-observed trace against the plan; any mismatch fails the run.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// roofBytes is the memory-roof buffer: the size of PI's Fi file on the
// benchmark network, the largest file any workload scans.
const roofBytes = 46_370_816

// roofPasses is how many read+XOR passes each roof measurement takes the
// best of.
const roofPasses = 25

func main() {
	workloadName := flag.String("workload", "", "workload to run: pi-scan, ci-rounds or fleet-open")
	seed := flag.Int64("seed", 1, "seed for the query endpoints and arrival times")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*workloadName, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errWrong marks a run that completed but returned a wrong answer.
var errWrong = fmt.Errorf("wrong answers or trace deviations")

func run(name string, seed int64, dur time.Duration, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := environment(seed)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envJSON)

	var kt *kernelTimer
	if traced {
		kt = &kernelTimer{}
	}
	d, st, err := setup(w, kt)
	if err != nil {
		return err
	}
	defer d.shutdown()
	setupPeak, err := peakRSSMiB()
	if err != nil {
		return err
	}
	// Memory bandwidth on a shared machine swings with its neighbours'
	// load, so the roof is the better of a measurement before and one
	// after the window; the first is taken before the peak-RSS window
	// opens.
	var roof float64
	if traced {
		roof = memRoofGBps(roofBytes, roofPasses)
	}
	if !resetPeakRSS() {
		return fmt.Errorf("the kernel cannot reset the peak RSS (/proc/self/clear_refs)")
	}
	pairs := makePairs(d.net.G, seed, numPairs)
	if err := d.serve(); err != nil {
		return err
	}
	chk := newChecker(d)
	dl := &dialer{w: w, d: d, check: chk, traced: traced, epoch: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var qs []querier
	for i := 0; i < max(w.conns, 1); i++ {
		q, err := dl.dial(ctx)
		if err != nil {
			return fmt.Errorf("dialing: %w", err)
		}
		defer q.close()
		qs = append(qs, q)
	}

	// Warm up connections, page caches and lazily started scan workers,
	// then measure between two settled registry snapshots.
	var next atomic.Int64
	closedLoop(qs, pairs, &next, min(2*time.Second, dur/4), &inflight{})
	m := &measurement{w: w, d: d, setup: st, setupPeakMiB: setupPeak}
	snap := func() ([]scrape, scrape, error) {
		d.drain()
		var ds []scrape
		for _, dm := range d.daemons {
			s, err := scrapeRegistry(dm.srv.Telemetry())
			if err != nil {
				return nil, nil, err
			}
			ds = append(ds, s)
		}
		c, err := scrapeRegistry(telemetry.Default())
		return ds, c, err
	}
	before, clientBefore, err := snap()
	if err != nil {
		return err
	}
	var kernel0 int64
	if kt != nil {
		kernel0 = kt.nanos.Load()
	}
	m.proc0 = sampleProcess()
	rss := startRSSSampler(50 * time.Millisecond)
	fl := &inflight{}
	if w.replicas > 0 {
		sched := poissonSchedule(seed, w.rate, dur)
		m.results, m.elapsed = openLoop(qs[0], pairs, int(next.Load()), sched, fl, maxOutstanding)
	} else {
		m.results, m.elapsed = closedLoop(qs, pairs, &next, dur, fl)
	}
	m.proc1 = sampleProcess()
	m.rss = rss.finish()
	after, clientAfter, err := snap()
	if err != nil {
		return err
	}
	if m.servePeakMiB, err = peakRSSMiB(); err != nil {
		return err
	}
	if kt != nil {
		m.kernelN = time.Duration(kt.nanos.Load() - kernel0)
		m.roof = max(roof, memRoofGBps(roofBytes, roofPasses))
	}
	for i := range before {
		m.daemons = append(m.daemons, promDelta{before[i], after[i]})
	}
	m.client = promDelta{clientBefore, clientAfter}
	m.peak = fl.peak.Load()
	var report []string
	m.wrong, report = chk.wrongAnswers()

	attempted, ok, _ := m.counts()
	metrics := m.endToEnd()
	if traced {
		metrics = m.perLayer()
	}
	fmt.Printf("# %s seed=%d seconds=%v traced=%v attempted=%d failed=%d wrong_answers=%d (warm-up included)\n",
		w.name, seed, dur.Seconds(), traced, attempted, attempted-ok, m.wrong)
	for _, r := range report {
		fmt.Printf("# wrong answer: %s\n", r)
	}
	if !traced {
		v, note := m.tail()
		fmt.Printf("# %-32s %14.6g ms  (%s; not gated)\n", "query_tail_ms", v, note)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: m.wrong == 0, Attempted: attempted, Failed: attempted - ok, Metrics: map[string]map[string]any{}}
	for _, mt := range metrics {
		note := ""
		if mt.note != "" {
			note = "  (" + mt.note + ")"
		}
		fmt.Printf("# %-32s %14.6g %s%s\n", mt.name, mt.value, mt.unit, note)
		out.Metrics[mt.name] = map[string]any{"value": finite(mt.value), "unit": mt.unit}
	}
	if _, mismatch := m.replicaScans(); mismatch > 0 {
		fmt.Printf("# fleet replicas ran different scan counts\n")
		out.Correct = false
	}
	js, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(js))
	if !out.Correct {
		return errWrong
	}
	return nil
}
