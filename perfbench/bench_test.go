package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	s := sortedCopy(xs)
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.8, 4}, {0.99, 5}, {1, 5},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("sortedCopy modified its input: %v", xs)
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// p99 of 1000 samples is the 990th; exactly 10 lie beyond it.
	if v, ok := tailQuantile(mk(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990, true", v, ok)
	}
	// With 999 samples only 9 lie beyond the p99.
	if _, ok := tailQuantile(mk(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with only 9 beyond it")
	}
	if got := beyond(200, 0.95); got != 10 {
		t.Errorf("beyond(200, 0.95) = %d, want 10", got)
	}
	if _, ok := tailQuantile(mk(199), 0.95); ok {
		t.Error("p95 of 199 samples reported with only 9 beyond it")
	}
	q, v, ok := highestTail(mk(300), 0.99, 0.95, 0.9)
	if !ok || q != 0.95 || v != 285 {
		t.Errorf("highestTail(300) = p%v %v %v; want p0.95 285 true", q, v, ok)
	}
	if _, _, ok := highestTail(mk(5), 0.99, 0.5); ok {
		t.Error("5 samples cannot support any tail with 10 beyond")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := interval{0, 100 * ms}
	for _, c := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"none", nil, 100 * ms},
		{"disjoint", []interval{{10 * ms, 20 * ms}, {30 * ms, 50 * ms}}, 70 * ms},
		{"overlapping", []interval{{10 * ms, 40 * ms}, {30 * ms, 60 * ms}}, 50 * ms},
		{"nested", []interval{{10 * ms, 90 * ms}, {20 * ms, 30 * ms}}, 20 * ms},
		{"unsorted touching", []interval{{50 * ms, 60 * ms}, {40 * ms, 50 * ms}}, 80 * ms},
		{"sticking out", []interval{{-10 * ms, 10 * ms}, {95 * ms, 120 * ms}}, 85 * ms},
		{"outside", []interval{{200 * ms, 300 * ms}}, 100 * ms},
		{"covering", []interval{{0, 60 * ms}, {50 * ms, 100 * ms}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPromHistogramDelta(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat_seconds", "test", telemetry.Seconds(), telemetry.L("db", "a"))
	c := reg.Counter("reqs_total", "test", telemetry.L("db", "a"))
	other := reg.Counter("reqs_total", "test", telemetry.L("db", "b"))

	// Observations before the first scrape must not appear in the delta.
	h.Observe(int64(500 * time.Millisecond))
	c.Add(7)
	before, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 100 * time.Millisecond} {
		h.Observe(int64(d))
	}
	c.Add(3)
	other.Add(5)
	after, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta{before, after}

	if got := d.sum("lat_seconds_count", nil); got != 4 {
		t.Errorf("_count delta = %v, want 4", got)
	}
	if got := d.sum("lat_seconds_sum", map[string]string{"db": "a"}); math.Abs(got-0.106) > 1e-9 {
		t.Errorf("_sum delta = %v, want 0.106", got)
	}
	if got := d.sum("reqs_total", map[string]string{"db": "a"}); got != 3 {
		t.Errorf("counter delta db=a = %v, want 3", got)
	}
	if got := d.sum("reqs_total", nil); got != 8 {
		t.Errorf("counter delta over all series = %v, want 8", got)
	}

	// Bucket counts rebuilt from the cumulative bucket lines cover exactly
	// the observations made between the scrapes: the 500 ms observation
	// before the first scrape is excluded although its bucket appears in
	// both scrapes. Bucket bounds overshoot a value by at most 1/16.
	for _, c := range []struct{ le, want float64 }{
		{0, 0}, {0.0009, 0}, {0.0035, 3}, {0.09, 3}, {0.11, 4}, {1, 4}, {math.Inf(1), 4},
	} {
		if got := histAtMost([]promDelta{d}, "lat_seconds", nil, c.le); got != c.want {
			t.Errorf("observations <= %v = %v, want %v", c.le, got, c.want)
		}
	}

	// Two registries' deltas merge bucket by bucket, including bounds only
	// one of them lists.
	reg2 := telemetry.NewRegistry()
	h2 := reg2.Histogram("lat_seconds", "test", telemetry.Seconds(), telemetry.L("db", "a"))
	b2, _ := scrapeRegistry(reg2)
	for i := 0; i < 4; i++ {
		h2.Observe(int64(200 * time.Millisecond))
	}
	a2, _ := scrapeRegistry(reg2)
	merged := []promDelta{d, {b2, a2}}
	for _, c := range []struct{ le, want float64 }{
		{0.0035, 3}, {0.15, 4}, {0.22, 8}, {math.Inf(1), 8},
	} {
		if got := histAtMost(merged, "lat_seconds", nil, c.le); got != c.want {
			t.Errorf("merged observations <= %v = %v, want %v", c.le, got, c.want)
		}
	}
	if got := histAtMost(merged, "absent_seconds", nil, 1); got != 0 {
		t.Errorf("observations of an absent family = %v, want 0", got)
	}
}

func TestParsePromLabels(t *testing.T) {
	sc, err := parseProm("# HELP x y\n# TYPE x counter\n" +
		`x{a="1",b="q\"uo\\te"} 4` + "\n" + "plain 2.5\n")
	if err != nil {
		t.Fatal(err)
	}
	s := sc[`x{a="1",b="q\"uo\\te"}`]
	if s.name != "x" || s.labels["a"] != "1" || s.labels["b"] != `q"uo\te` || s.value != 4 {
		t.Errorf("parsed %+v", s)
	}
	if sc["plain"].value != 2.5 {
		t.Errorf("unlabeled sample = %+v", sc["plain"])
	}
	if _, err := parseProm("x{a=1} 3\n"); err == nil {
		t.Error("unquoted label value accepted")
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(7, 50, 20*time.Second)
	b := poissonSchedule(7, 50, 20*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 50, 20*time.Second)) {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(a); n != 1000 {
		t.Errorf("%d arrivals in 20s at 50/s, want exactly 1000", n)
	}
	for i, at := range a {
		if at < 0 || at >= 20*time.Second || (i > 0 && at < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or range", i, at)
		}
	}
	var gaps []float64
	for i := 1; i < len(a); i++ {
		gaps = append(gaps, (a[i] - a[i-1]).Seconds())
	}
	if m := mean(gaps); math.Abs(m-0.02) > 0.002 {
		t.Errorf("mean gap %v, want about 1/50 s", m)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	// The generator fell 30ms behind and the query then took 5ms: the
	// user waited 35ms from when the query was due.
	o := openTiming{due: 100 * time.Millisecond, sent: 130 * time.Millisecond, done: 135 * time.Millisecond}
	if got := o.latency(); got != 35*time.Millisecond {
		t.Errorf("latency = %v, want 35ms", got)
	}
	if got := o.lateness(); got != 30*time.Millisecond {
		t.Errorf("lateness = %v, want 30ms", got)
	}
}

func TestOpenLoopAccountsLateness(t *testing.T) {
	// A querier that holds every query for 20ms, with arrivals every 1ms
	// and at most one outstanding query: the generator cannot keep up, so
	// lateness and latency from the due time grow along the schedule.
	sched := make([]time.Duration, 10)
	for i := range sched {
		sched[i] = time.Duration(i) * time.Millisecond
	}
	q := sleepQuerier(20 * time.Millisecond)
	res, elapsed := openLoop(q, make([]pair, 1), 0, sched, &inflight{}, 1)
	if elapsed < 200*time.Millisecond {
		t.Errorf("10 queries of 20ms one at a time finished in %v", elapsed)
	}
	last := res[len(res)-1]
	if last.late < 150*time.Millisecond {
		t.Errorf("last query sent %v late; want the backlog of 9 queries", last.late)
	}
	if last.lat < last.late+20*time.Millisecond {
		t.Errorf("latency %v does not include lateness %v plus service time", last.lat, last.late)
	}
	for i := 1; i < len(res); i++ {
		if res[i].lat < res[i-1].lat {
			t.Errorf("latency fell from %v to %v along a growing backlog", res[i-1].lat, res[i].lat)
		}
	}
}

// sleepQuerier answers every query correctly after a fixed service time.
type sleepQuerier time.Duration

func (s sleepQuerier) query(ctx context.Context, p pair) result {
	time.Sleep(time.Duration(s))
	return result{ok: true, correct: true}
}

func (sleepQuerier) close() {}
