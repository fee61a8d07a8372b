package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/server"
	"repro/privsp"
)

// Fixed inputs shared by every workload. The road network is the full
// synthetic Oldenburg (6105 nodes) generated from one fixed seed, so the
// database, its plan and its file sizes are the same in every run; the
// benchmark's --seed draws only the query endpoints and arrival times.
const (
	networkScale = 1.0
	networkSeed  = 1
	setupReps    = 3    // set-ups per run; setup_s is their median
	numPairs     = 1024 // distinct endpoint pairs, verified against Dijkstra
	dbName       = "bench"
)

// workload is one traffic shape. Closed-loop workloads run conns
// connections, each sending its next query when the previous one returns;
// open-loop workloads send Poisson arrivals at rate per second through a
// fleet of replicas ReplicaRole daemons.
type workload struct {
	name     string
	scheme   privsp.Scheme
	xorpir   bool          // XOR-PIR stores (scan scheduler, parallel scan) instead of plain
	conns    int           // closed loop: connections, one query in flight on each
	replicas int           // open loop: ReplicaRole daemons behind privsp.DialFleet
	rate     float64       // open loop: offered queries per second
	limit    time.Duration // latency limit for goodput, a few times the workload's median
	tailQ    float64       // the tail percentile the report prints
}

var workloads = []workload{
	{name: "pi-scan", scheme: privsp.PI, xorpir: true, conns: 2, limit: 250 * time.Millisecond, tailQ: 0.95},
	{name: "ci-rounds", scheme: privsp.CI, conns: 2, limit: 100 * time.Millisecond, tailQ: 0.99},
	{name: "fleet-open", scheme: privsp.HY, xorpir: true, replicas: 2, rate: 28, limit: 50 * time.Millisecond, tailQ: 0.95},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// daemon is one in-process privspd: a server hosting the benchmark
// database, serving on a loopback listener once started.
type daemon struct {
	srv  *server.Server
	addr string
	done chan struct{} // closed when Serve returns
}

// deployment is the hosted database plus the timings of building it.
type deployment struct {
	net     *privsp.Network
	db      *privsp.Database
	daemons []*daemon

	networkS, buildS, hostS float64
}

// storeFactory returns the daemon's PIR store constructor: nil (plain
// stores, the daemon's default) or XOR PIR, wrapped in the scan timer when
// kt is non-nil.
func storeFactory(w workload, kt *kernelTimer) lbs.StoreFactory {
	if !w.xorpir {
		return nil
	}
	return func(f pagefile.Reader) (pir.Store, error) {
		x, err := pir.NewXORPIR(f)
		if err != nil || kt == nil {
			return x, err
		}
		return &timedXOR{XORPIR: x, t: kt}, nil
	}
}

// build runs one set-up: generate the network, build the scheme database
// and host it on every daemon of the workload (one for closed-loop
// workloads, the replica fleet for open-loop ones). The daemons are not
// serving yet.
func build(w workload, kt *kernelTimer) (*deployment, error) {
	d := &deployment{}
	t0 := time.Now()
	d.net = privsp.Generate(privsp.Oldenburg, networkScale, networkSeed)
	t1 := time.Now()
	db, err := privsp.Build(d.net, privsp.Config{Scheme: w.scheme, Seed: networkSeed})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", w.scheme, err)
	}
	d.db = db
	t2 := time.Now()
	n := max(w.replicas, 1)
	for i := 0; i < n; i++ {
		srv := server.New(server.Options{
			Stores:      storeFactory(w, kt),
			ReplicaRole: w.replicas > 0,
		})
		d.daemons = append(d.daemons, &daemon{srv: srv})
		if err := srv.Host(dbName, db.LBS(), costmodel.Default()); err != nil {
			d.shutdown()
			return nil, fmt.Errorf("hosting %s: %w", w.scheme, err)
		}
	}
	t3 := time.Now()
	d.networkS, d.buildS, d.hostS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	return d, nil
}

// setupTimes are the medians over the run's set-ups.
type setupTimes struct {
	totalS, networkS, buildS, hostS float64
}

// setup builds the deployment setupReps times, keeps the last and reports
// median timings, so one slow set-up (a GC, a noisy neighbour) does not
// decide setup_s.
func setup(w workload, kt *kernelTimer) (*deployment, setupTimes, error) {
	var tot, nets, builds, hosts []float64
	var d *deployment
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.shutdown()
			d = nil
			runtime.GC()
		}
		var err error
		if d, err = build(w, kt); err != nil {
			return nil, setupTimes{}, err
		}
		tot = append(tot, d.networkS+d.buildS+d.hostS)
		nets = append(nets, d.networkS)
		builds = append(builds, d.buildS)
		hosts = append(hosts, d.hostS)
	}
	return d, setupTimes{median(tot), median(nets), median(builds), median(hosts)}, nil
}

// serve starts every daemon on a loopback listener.
func (d *deployment) serve() error {
	for _, dm := range d.daemons {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		dm.addr = ln.Addr().String()
		dm.done = make(chan struct{})
		go func(dm *daemon) {
			defer close(dm.done)
			_ = dm.srv.Serve(ln) // returns once shutdown closes the listener
		}(dm)
	}
	return nil
}

// drain waits until no daemon has a query open or a read queued, so the
// registry scrapes that follow count only settled work.
func (d *deployment) drain() {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		busy := false
		for _, dm := range d.daemons {
			for _, st := range dm.srv.Stats().Databases {
				if st.InFlight != 0 || st.BusyWorkers != 0 || st.QueuedReads != 0 {
					busy = true
				}
			}
		}
		if !busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// shutdown stops every daemon and waits for its Serve loop to return.
func (d *deployment) shutdown() {
	for _, dm := range d.daemons {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = dm.srv.Shutdown(ctx) // past the deadline it force-closes the connections itself
		cancel()
		if dm.done != nil {
			<-dm.done
		}
	}
}

func (d *deployment) addrs() []string {
	out := make([]string, len(d.daemons))
	for i, dm := range d.daemons {
		out[i] = dm.addr
	}
	return out
}

// pair is one query's endpoints and the cost Dijkstra finds between them.
type pair struct {
	src, dst privsp.NodeID
	cost     float64
	found    bool
}

// makePairs draws n endpoint pairs uniformly from the seed and solves each
// with Dijkstra: the oracle every answer is checked against.
func makePairs(g *graph.Graph, seed int64, n int) []pair {
	rng := rand.New(rand.NewSource(seed))
	nodes := g.NumNodes()
	out := make([]pair, n)
	for i := range out {
		s := privsp.NodeID(rng.Intn(nodes))
		t := privsp.NodeID(rng.Intn(nodes - 1))
		if t >= s {
			t++
		}
		p := graph.ShortestPath(g, s, t)
		out[i] = pair{src: s, dst: t, cost: p.Cost, found: p.Found()}
	}
	return out
}

// checker verifies answers against the oracle and the public plan.
type checker struct {
	net       *privsp.Network
	canonical string // lbs.CanonicalTrace of the plan: every server trace must equal it
	planPages int    // PlanPIRAccesses: pages every query reads

	mu     sync.Mutex
	wrong  int
	report []string // the first few mismatches, for the log
}

func newChecker(d *deployment) *checker {
	return &checker{
		net:       d.net,
		canonical: lbs.CanonicalTrace(d.db.LBS().Plan),
		planPages: d.db.PlanPIRAccesses(),
	}
}

// check returns whether one answer is right: its cost is Dijkstra's, the
// daemon observed exactly the plan's canonical trace, and the query read
// exactly the plan's pages (counted by the client's Stats and, for traced
// queries, by the backend decorator; tracedPages < 0 means untraced).
func (c *checker) check(p pair, res *privsp.Result, serverTrace string, tracedPages int) bool {
	var problems []string
	if res.Found() != p.found {
		problems = append(problems, fmt.Sprintf("found=%v, Dijkstra found=%v", res.Found(), p.found))
	} else if p.found && math.Abs(res.Cost-p.cost) > 1e-6*math.Max(1, p.cost) {
		problems = append(problems, fmt.Sprintf("cost %.6f, Dijkstra %.6f", res.Cost, p.cost))
	}
	if serverTrace != c.canonical {
		problems = append(problems, "server trace deviates from the plan's canonical trace")
	}
	fetched := 0
	for _, n := range res.Stats.Fetches {
		fetched += n
	}
	if fetched != c.planPages {
		problems = append(problems, fmt.Sprintf("%d pages fetched, plan has %d", fetched, c.planPages))
	}
	if tracedPages >= 0 && tracedPages != c.planPages {
		problems = append(problems, fmt.Sprintf("%d pages read through the backend, plan has %d", tracedPages, c.planPages))
	}
	if len(problems) == 0 {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrong++
	if len(c.report) < 5 {
		sort.Strings(problems)
		c.report = append(c.report, fmt.Sprintf("%d->%d: %v", p.src, p.dst, problems))
	}
	return false
}

func (c *checker) wrongAnswers() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wrong, append([]string(nil), c.report...)
}
