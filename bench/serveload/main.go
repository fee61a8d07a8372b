// Command serveload drives a short serving-path load entirely in-process:
// it builds the requested scheme databases over a generated network, hosts
// them on a loopback daemon, runs a fixed batch of remote queries per
// scheme through the real wire protocol, and writes the daemon's
// Prometheus-text /metrics scrape to stdout. bench/run.sh feeds that
// scrape to `benchjson -metrics` so BENCH_9.json carries the serving-path
// latency histograms (p50/p99 per scheme) next to the kernel benchmarks.
//
// With -conns N, each scheme's query batch is fired from N concurrent
// connections; with -pir xorpir the files are hosted on single-scan XOR
// PIR stores, which engages the cross-connection scan scheduler. Together
// they measure scan amortization: run.sh scrapes the scheduler's
// fetch/scan counters at 1, 8 and 32 connections and benchjson -amortize
// folds them into the scan_amortization section of the benchmark record.
// -scan-workers additionally fans each merged scan across the segmented
// parallel kernel, so the same harness exercises the parallel serving path.
//
// With -fleet host1,host2 the harness instead drives the two-server fan-out
// path against EXTERNAL privspd replicas (started with -replica-role -pir
// xorpir, serving a database built from the same preset/scale/seed): every
// page read is split into XOR PIR selector shares sent to different
// replicas and reconstructed locally. The scrape on stdout is then the
// fleet CLIENT registry — fan-out round-trip histograms and per-replica
// health — prefixed with a "# fleet_elapsed_seconds" comment so benchjson
// -fleet can turn the replicas' own scan counters into per-replica scans/s.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/pir"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/privsp"
)

func main() {
	schemes := flag.String("schemes", "CI,PI,HY,AF,LM", "comma-separated schemes to host and load")
	scale := flag.Float64("scale", 0.08, "Oldenburg subgraph scale")
	queries := flag.Int("queries", 10, "queries per scheme per connection")
	conns := flag.Int("conns", 1, "concurrent connections per scheme")
	pirStore := flag.String("pir", "plain", "page store class: plain or xorpir (single-scan, scheduler-batched)")
	scanWindow := flag.Duration("scan-window", 0, "scan-scheduler batching window (0 = server default)")
	scanCap := flag.Int("scan-cap", 0, "scan-scheduler batch page cap (0 = server default)")
	scanWorkers := flag.Int("scan-workers", 0, "workers fanning out each PIR scan on parallel-capable stores (0 = size-aware default, 1 = serial kernel)")
	seed := flag.Int64("seed", 1, "network generation seed")
	fleetAddrs := flag.String("fleet", "", "comma-separated privspd replica addresses: drive the two-server share fan-out instead of hosting in-process (replicas must serve a database built from the same preset/scale/seed)")
	flag.Parse()
	log.SetPrefix("serveload: ")
	log.SetFlags(0)

	if *fleetAddrs != "" {
		if err := runFleet(*fleetAddrs, *scale, *queries, *conns, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}

	stores, err := storeFactory(*pirStore)
	if err != nil {
		log.Fatal(err)
	}
	if err := run(*schemes, *scale, *queries, *conns, *seed, server.Options{
		Stores:       stores,
		ScanWindow:   *scanWindow,
		ScanBatchCap: *scanCap,
		ScanWorkers:  *scanWorkers,
	}); err != nil {
		log.Fatal(err)
	}
}

func storeFactory(name string) (lbs.StoreFactory, error) {
	switch name {
	case "", "plain":
		return nil, nil
	case "xorpir":
		return func(f pagefile.Reader) (pir.Store, error) { return pir.NewXORPIR(f) }, nil
	default:
		return nil, fmt.Errorf("unknown -pir store %q (use plain or xorpir)", name)
	}
}

func run(schemes string, scale float64, queries, conns int, seed int64, opts server.Options) error {
	if conns < 1 {
		conns = 1
	}
	net0 := privsp.Generate(privsp.Oldenburg, scale, seed)
	srv := server.New(opts)
	var names []string
	for _, name := range strings.Split(schemes, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		start := time.Now()
		db, err := privsp.Build(net0, privsp.Config{Scheme: privsp.Scheme(name), Seed: seed})
		if err != nil {
			return fmt.Errorf("building %s: %v", name, err)
		}
		if err := srv.Host(name, db.LBS(), costmodel.Default()); err != nil {
			return fmt.Errorf("hosting %s: %v", name, err)
		}
		log.Printf("hosted %s (built in %v)", name, time.Since(start).Round(time.Millisecond))
		names = append(names, name)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	n := privsp.NodeID(net0.NumNodes())
	for _, name := range names {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, conns)
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs <- load(ln.Addr().String(), name, net0, n, queries, c)
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				return err
			}
		}
		log.Printf("%s: %d conns x %d queries in %v", name, conns, queries,
			time.Since(start).Round(time.Millisecond))
	}

	// Let the daemon's per-query finish accounting (which runs after the
	// client sees QueryDone) drain before snapshotting.
	deadline := time.Now().Add(5 * time.Second)
	for {
		busy := false
		for _, d := range srv.Stats().Databases {
			if d.InFlight != 0 || d.BusyWorkers != 0 || d.QueuedReads != 0 {
				busy = true
			}
		}
		if !busy || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	return srv.Telemetry().WritePrometheus(os.Stdout)
}

// runFleet drives the batch through the fleet fan-out client against
// external replica daemons: every XOR PIR read becomes one selector share
// per replica, reconstructed locally. Endpoints are derived from the same
// generated network the replicas' database was built from, so the load is
// the same one the in-process harness runs. The scrape printed on stdout
// is the fleet CLIENT registry (fan-out latency, replica health), prefixed
// with the run's wall time as a "# fleet_elapsed_seconds" comment line;
// per-replica server-side counters live on each replica's own /metrics.
func runFleet(fleetAddrs string, scale float64, queries, conns int, seed int64) error {
	if conns < 1 {
		conns = 1
	}
	var addrs []string
	for _, a := range strings.Split(fleetAddrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	net0 := privsp.Generate(privsp.Oldenburg, scale, seed)
	fs, err := privsp.DialFleetConfig(context.Background(), addrs, privsp.FleetConfig{
		Logf: log.Printf,
	})
	if err != nil {
		return err
	}
	defer fs.Close()
	log.Printf("fleet of %d replicas, %s fan-out", len(addrs), fs.Mode())

	n := privsp.NodeID(net0.NumNodes())
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				s := privsp.NodeID(i*7+c*11) % n
				d := privsp.NodeID(i*13+c*3+5) % n
				if _, err := fs.ShortestPath(context.Background(),
					net0.NodePoint(s), net0.NodePoint(d)); err != nil {
					errs <- fmt.Errorf("fleet conn %d query %d: %v", c, i, err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	st := fs.Status()
	log.Printf("fleet: %d conns x %d queries in %v (%d paired, %d degraded)",
		conns, queries, elapsed.Round(time.Millisecond), st.PairedQueries, st.DegradedQueries)

	fmt.Printf("# fleet_elapsed_seconds %g\n", elapsed.Seconds())
	return telemetry.Default().WritePrometheus(os.Stdout)
}

// load runs one connection's share of the batch: `queries` shortest-path
// queries over endpoints decorrelated per connection, so concurrent
// connections hit overlapping rounds with distinct selectors.
func load(addr, name string, net0 *privsp.Network, n privsp.NodeID, queries, conn int) error {
	remote, err := privsp.DialDatabase(addr, name)
	if err != nil {
		return fmt.Errorf("dialing %s: %v", name, err)
	}
	defer remote.Close()
	for i := 0; i < queries; i++ {
		s := privsp.NodeID(i*7+conn*11) % n
		d := privsp.NodeID(i*13+conn*3+5) % n
		if _, err := remote.ShortestPath(context.Background(),
			net0.NodePoint(s), net0.NodePoint(d)); err != nil {
			return fmt.Errorf("%s conn %d query %d: %v", name, conn, i, err)
		}
	}
	return nil
}
