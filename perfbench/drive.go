package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/fleet"
	"repro/internal/lbs"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/pi"
	"repro/internal/wire"
	"repro/privsp"
)

// queryTimeout bounds one query; a query that hits it counts as failed.
const queryTimeout = 10 * time.Second

// maxOutstanding bounds the open loop's in-flight queries (and so its
// goroutines), far above what the offered rate keeps in flight.
const maxOutstanding = 512

// result is one finished query.
type result struct {
	lat     time.Duration // closed loop: from the call; open loop: from the due time
	late    time.Duration // generator delay: open loop, how late it was sent; closed loop, the gap since the previous query on its connection returned
	done    time.Duration // when it returned, from the start of the window
	ok      bool          // answered without error
	correct bool          // answered, and the answer passed every check
	stats   privsp.Stats
	traced  bool
	spans   []span // traced queries only
}

// querier runs one query end to end and checks it.
type querier interface {
	query(ctx context.Context, p pair) result
	close()
}

// apiQuerier drives the public privsp API (RemoteServer or FleetServer)
// with tracing off: the path a user of the library takes.
type apiQuerier struct {
	svc     privsp.PathService
	closeFn func() error
	net     *privsp.Network
	check   *checker
}

func (a *apiQuerier) query(ctx context.Context, p pair) result {
	var st privsp.Stats
	var trace string
	res, err := a.svc.ShortestPath(ctx, a.net.NodePoint(p.src), a.net.NodePoint(p.dst),
		privsp.WithStats(&st), privsp.WithServerTrace(&trace))
	if err != nil {
		return result{}
	}
	return result{ok: true, correct: a.check.check(p, res, trace, -1), stats: st}
}

func (a *apiQuerier) close() { a.closeFn() }

// directQuerier drives the same deployment one layer down: it opens a query
// session itself (client.Query or fleet.Query), runs the scheme's Query
// over it and settles it with End, or Cancel on failure — exactly what
// privsp.RemoteServer and FleetServer do — so that the session's
// lbs.Backend can be decorated with spans. Every other query stays
// undecorated; comparing the two halves measures the tracing overhead.
type directQuerier struct {
	start   func() (session, error)
	closeFn func() error
	scheme  privsp.Scheme
	net     *privsp.Network
	check   *checker
	epoch   time.Time
	seq     *atomic.Int64 // query IDs, shared by the run's queriers
}

func (q *directQuerier) close() { q.closeFn() }

func (q *directQuerier) query(ctx context.Context, p pair) result {
	qid := q.seq.Add(1)
	s, err := q.start()
	if err != nil {
		return result{}
	}
	traced := qid%2 == 0
	var svc lbs.Service = s
	var rec *queryRec
	var tb *tracedBackend
	if traced {
		rec = newQueryRec(q.epoch, qid)
		tb = &tracedBackend{inner: s, rec: rec, root: rec.begin("query", -1)}
		svc = tb
	}
	res, err := runScheme(ctx, q.scheme, svc, q.net.NodePoint(p.src), q.net.NodePoint(p.dst))
	if rec != nil {
		rec.closeRound()
	}
	var trace string
	if err == nil {
		if trace, err = s.End(ctx); err != nil {
			s.Cancel(cancelReason(ctx, err))
		}
	} else {
		s.Cancel(cancelReason(ctx, err))
	}
	if rec != nil {
		rec.end(tb.root)
	}
	if err != nil {
		return result{traced: traced}
	}
	pages := -1
	var spans []span
	if rec != nil {
		pages = 0
		for _, sp := range rec.spans {
			if sp.name == "read" {
				pages += sp.pages
			}
		}
		spans = rec.spans
	}
	return result{ok: true, correct: q.check.check(p, res, trace, pages), stats: res.Stats, traced: traced, spans: spans}
}

// runScheme dispatches the scheme's client protocol over svc.
func runScheme(ctx context.Context, scheme privsp.Scheme, svc lbs.Service, src, dst privsp.Point) (*privsp.Result, error) {
	switch scheme {
	case privsp.CI:
		return ci.Query(ctx, svc, src, dst)
	case privsp.PI:
		return pi.Query(ctx, svc, src, dst)
	case privsp.HY:
		return hy.Query(ctx, svc, src, dst)
	}
	return nil, fmt.Errorf("no client protocol for scheme %q", scheme)
}

// cancelReason classifies a failed query for the daemon's accounting, as
// the privsp deployments do.
func cancelReason(ctx context.Context, err error) uint8 {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		return wire.CancelDeadline
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		return wire.CancelContext
	default:
		return wire.CancelAbandon
	}
}

// dialer opens queriers against a served deployment: the public API
// untraced, the decorated session path traced.
type dialer struct {
	w      workload
	d      *deployment
	check  *checker
	traced bool
	epoch  time.Time
	seq    atomic.Int64
}

// dial opens one connection's querier (one daemon connection, or one fleet
// — a connection to each replica).
func (dl *dialer) dial(ctx context.Context) (querier, error) {
	addrs := dl.d.addrs()
	if !dl.traced {
		if dl.w.replicas > 0 {
			fs, err := privsp.DialFleetConfig(ctx, addrs, privsp.FleetConfig{})
			if err != nil {
				return nil, err
			}
			return &apiQuerier{svc: fs, closeFn: fs.Close, net: dl.d.net, check: dl.check}, nil
		}
		rs, err := privsp.DialDatabaseContext(ctx, addrs[0], dbName)
		if err != nil {
			return nil, err
		}
		return &apiQuerier{svc: rs, closeFn: rs.Close, net: dl.d.net, check: dl.check}, nil
	}
	dq := &directQuerier{scheme: dl.w.scheme, net: dl.d.net, check: dl.check, epoch: dl.epoch, seq: &dl.seq}
	if dl.w.replicas > 0 {
		f, err := fleet.Dial(ctx, addrs, fleet.Options{})
		if err != nil {
			return nil, err
		}
		dq.start = func() (session, error) {
			q := f.StartQuery()
			return q, q.Err()
		}
		dq.closeFn = f.Close
		return dq, nil
	}
	c, err := client.DialContext(ctx, addrs[0], client.Options{Database: dbName})
	if err != nil {
		return nil, err
	}
	dq.start = func() (session, error) { return c.StartQuery(), nil }
	dq.closeFn = c.Close
	return dq, nil
}

// inflight tracks queries outstanding and the most seen at once.
type inflight struct {
	cur, peak atomic.Int64
}

func (f *inflight) inc() {
	n := f.cur.Add(1)
	for {
		p := f.peak.Load()
		if n <= p || f.peak.CompareAndSwap(p, n) {
			return
		}
	}
}

func (f *inflight) dec() { f.cur.Add(-1) }

// closedLoop runs len(qs) connections, each sending its next query as soon
// as the previous one returns, until the duration has passed. Every query
// started before the end completes and is counted. It returns the results
// and the wall time from start until the last query returned.
func closedLoop(qs []querier, pairs []pair, next *atomic.Int64, dur time.Duration, fl *inflight) ([]result, time.Duration) {
	start := time.Now()
	stop := start.Add(dur)
	var mu sync.Mutex
	var all []result
	var wg sync.WaitGroup
	for _, q := range qs {
		wg.Add(1)
		go func(q querier) {
			defer wg.Done()
			var mine []result
			prev := time.Now()
			for time.Now().Before(stop) {
				p := pairs[int(next.Add(1)-1)%len(pairs)]
				ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
				fl.inc()
				t0 := time.Now()
				r := q.query(ctx, p)
				r.lat = time.Since(t0)
				r.late = t0.Sub(prev)
				r.done = time.Since(start)
				fl.dec()
				cancel()
				mine = append(mine, r)
				prev = time.Now()
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(q)
	}
	wg.Wait()
	return all, time.Since(start)
}

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate per second over dur, drawn from seed: the same seed gives the same
// schedule. The process is conditioned on its expected count, rate·dur
// arrivals, which are then independent uniform times over the window; so
// every seed offers the same load and seeds differ only in how bursty it
// arrives.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	slices.Sort(out)
	return out
}

// openTiming is one open-loop query's clock readings relative to the
// schedule start: when it was due, sent and done.
type openTiming struct{ due, sent, done time.Duration }

// latency is measured from the due time, so a generator or system stall
// charges its wait to every query it delayed (no coordinated omission).
func (o openTiming) latency() time.Duration { return o.done - o.due }

// lateness is how far behind schedule the generator sent the query.
func (o openTiming) lateness() time.Duration { return o.sent - o.due }

// openLoop sends one query per schedule entry at its due time, whether or
// not earlier queries have returned, all through one shared querier. It
// returns the results and the wall time until the last query returned.
// At most bound queries are outstanding; a send that finds the bound full
// waits, and that wait shows as lateness and latency.
func openLoop(q querier, pairs []pair, first int, schedule []time.Duration, fl *inflight, bound int) ([]result, time.Duration) {
	sem := make(chan struct{}, bound)
	out := make([]result, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, due := range schedule {
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		sent := time.Since(start)
		wg.Add(1)
		go func(i int, due, sent time.Duration) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
			defer cancel()
			fl.inc()
			r := q.query(ctx, pairs[(first+i)%len(pairs)])
			fl.dec()
			t := openTiming{due: due, sent: sent, done: time.Since(start)}
			r.lat, r.late, r.done = t.latency(), t.lateness(), t.done
			out[i] = r
		}(i, due, sent)
	}
	wg.Wait()
	return out, time.Since(start)
}
