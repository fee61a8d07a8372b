// Package privsp is the public API of the reproduction of Mouratidis & Yiu,
// "Shortest Path Computation with No Information Leakage" (PVLDB 5(8),
// 2012). It computes shortest paths on road networks hosted by an untrusted
// location-based service such that the service learns nothing about the
// query — not the source, destination, path, length, or even whether two
// queries are identical.
//
// Typical use:
//
//	net := privsp.Generate(privsp.Oldenburg, 0.1, 1)       // or LoadEdgeList
//	db, _ := privsp.Build(net, privsp.Config{Scheme: privsp.CI})
//	srv, _ := privsp.Serve(db)
//	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
//	defer cancel()
//	res, _ := srv.ShortestPath(ctx, privsp.Point{X: 3, Y: 4}, privsp.Point{X: 40, Y: 38})
//	fmt.Println(res.Cost, res.Stats.Response())
//
// Every query takes a context: cancelling it (or letting its deadline
// expire) aborts the query at the next PIR round boundary, returns ctx.Err()
// to the caller, and — for remote queries — tells the daemon to abandon the
// server-side work. Because aborts happen only between rounds, the trace a
// cancelled query leaves at the service is a prefix of the one full-query
// trace: cancellation leaks nothing (Theorem 1 is preserved).
//
// Deployments scale from in-process (Serve) through one remote daemon
// (DialContext, cmd/privspd) to a replica fleet (DialFleet): two or more
// daemons in -replica-role each receive one XOR PIR selector share per
// page read and the page is reconstructed only client-side, making the
// two-server PIR model real — information-theoretic privacy as long as
// the replicas do not collude, with health-checked failover and an
// explicit, counted demotion to single-server trust when only one
// replica survives. All three satisfy the same PathService interface.
//
// Four strongly private schemes are provided — CI (small database, more PIR
// page fetches), PI (one-page-fast queries, huge index), HY (tunable hybrid)
// and PIStar (clustered PI, tunable) — plus the weaker baselines the paper
// compares against (LM, AF and the obfuscation scheme OBF).
package privsp

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/client"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/lbs"
	"repro/internal/netio"
	"repro/internal/pagefile"
	"repro/internal/plan"
	"repro/internal/scheme/af"
	"repro/internal/scheme/base"
	"repro/internal/scheme/ci"
	"repro/internal/scheme/hy"
	"repro/internal/scheme/lm"
	"repro/internal/scheme/obf"
	"repro/internal/scheme/pi"
	"repro/internal/wire"
)

// Point is a Euclidean location on the road network.
type Point = geom.Point

// NodeID identifies a network node.
type NodeID = graph.NodeID

// Network is a weighted road network.
type Network struct {
	G *graph.Graph
}

// Preset names one of the paper's Table 1 road networks.
type Preset = gen.Preset

// The six Table 1 networks.
const (
	Oldenburg    = gen.Oldenburg
	Germany      = gen.Germany
	Argentina    = gen.Argentina
	Denmark      = gen.Denmark
	India        = gen.India
	NorthAmerica = gen.NorthAmerica
)

// Generate synthesizes a preset network at the given scale in (0, 1]; see
// README "Departures from the paper" on how the synthetic networks match
// the paper's datasets.
func Generate(p Preset, scale float64, seed int64) *Network {
	spec := gen.PresetSpec(p, scale)
	spec.Seed = seed
	return &Network{G: gen.Generate(spec)}
}

// LoadNetwork parses a road network from the plain two-file edge-list
// format the original datasets use ("id x y" node lines, "id from to
// weight" edge lines); see internal/netio for the grammar.
func LoadNetwork(nodes, edges io.Reader) (*Network, error) {
	g, err := netio.ReadNetwork(nodes, edges)
	if err != nil {
		return nil, err
	}
	return &Network{G: g}, nil
}

// SaveNetwork writes the network in the same two-file format.
func (n *Network) SaveNetwork(nodes, edges io.Writer) error {
	return netio.WriteNetwork(n.G, nodes, edges)
}

// NewNetwork starts an empty undirected network for manual construction.
func NewNetwork() *Network { return &Network{G: graph.NewUndirected()} }

// AddNode appends a node and returns its ID. Coordinates must be unique per
// axis for exact coordinate→region mapping.
func (n *Network) AddNode(p Point) NodeID { return n.G.AddNode(p) }

// AddRoad inserts an undirected road segment of the given positive cost.
func (n *Network) AddRoad(u, v NodeID, cost float64) error { return n.G.AddEdge(u, v, cost) }

// NumNodes returns |V|.
func (n *Network) NumNodes() int { return n.G.NumNodes() }

// NumEdges returns |E|.
func (n *Network) NumEdges() int { return n.G.NumEdges() }

// NodePoint returns the coordinates of a node.
func (n *Network) NodePoint(v NodeID) Point { return n.G.Point(v) }

// Scheme selects a private shortest path scheme or baseline.
type Scheme string

// The schemes of the paper (§5, §6) and its baselines (§4, §7.3).
const (
	CI     Scheme = "CI"
	PI     Scheme = "PI"
	PIStar Scheme = "PI*"
	HY     Scheme = "HY"
	LM     Scheme = "LM"
	AF     Scheme = "AF"
	OBF    Scheme = "OBF"
)

// Config selects and tunes a scheme.
type Config struct {
	Scheme   Scheme
	PageSize int // 0 = 4 KB (Table 2)

	// Packed / Compress default to true; setting the Disable* fields
	// reproduces the paper's ablations (CI-P, CI-C, PI-P, PI-C; Fig. 8–9).
	DisablePacking     bool
	DisableCompression bool

	// ClusterPages tunes PIStar (pages per region, ≥ 2).
	ClusterPages int
	// Threshold tunes HY (max |S_i,j| kept as a region set).
	Threshold int
	// Landmarks tunes LM (anchor count).
	Landmarks int
	// Regions tunes AF (arc-flag bits per edge).
	Regions int
	// SetSize tunes OBF (|S| = |T|).
	SetSize int
	// Seed drives any randomized build step (plan derivation, decoys).
	Seed int64

	// ApproxFactor in (0,1) enables CI's approximate variant (§8 future
	// work): region sets truncated toward the source–destination corridor,
	// shrinking the query plan at the cost of occasional suboptimality.
	ApproxFactor float64
	// CompactData enables the losslessly compressed region-data layout
	// (§8 future work) for CI, PI and PIStar.
	CompactData bool
}

// Database is a built, servable database. Databases come from Build (in
// memory) or Open (backed by a persistent container); both serve through
// identical code. Close a database loaded with Open when done with it.
type Database struct {
	cfg       Config
	db        *lbs.Database       // nil for OBF
	net       *Network            // retained for OBF only
	obfBytes  int64               // OBF footprint, computed once at build
	container *pagefile.Container // non-nil iff loaded by Open
}

// Build pre-processes a network under the chosen scheme.
func Build(n *Network, cfg Config) (*Database, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	switch cfg.Scheme {
	case CI:
		opt := ci.DefaultOptions()
		opt.PageSize = pageSize(cfg)
		opt.Packed = !cfg.DisablePacking
		opt.Compress = !cfg.DisableCompression
		opt.ApproxFactor = cfg.ApproxFactor
		opt.CompactData = cfg.CompactData
		db, err := ci.Build(n.G, opt)
		return wrap(cfg, db, err)
	case PI, PIStar:
		opt := pi.DefaultOptions()
		opt.PageSize = pageSize(cfg)
		opt.Packed = !cfg.DisablePacking
		opt.Compress = !cfg.DisableCompression
		opt.CompactData = cfg.CompactData
		if cfg.Scheme == PIStar {
			if cfg.ClusterPages < 2 {
				cfg.ClusterPages = 2
			}
			opt.ClusterPages = cfg.ClusterPages
		}
		db, err := pi.Build(n.G, opt)
		return wrap(cfg, db, err)
	case HY:
		opt := hy.DefaultOptions()
		opt.PageSize = pageSize(cfg)
		opt.Compress = !cfg.DisableCompression
		if cfg.Threshold > 0 {
			opt.Threshold = cfg.Threshold
		}
		db, err := hy.Build(n.G, opt)
		return wrap(cfg, db, err)
	case LM:
		opt := lm.DefaultOptions()
		opt.PageSize = pageSize(cfg)
		if cfg.Landmarks > 0 {
			opt.Landmarks = cfg.Landmarks
		}
		opt.DeriveSeed = cfg.Seed
		db, err := lm.Build(n.G, opt)
		return wrap(cfg, db, err)
	case AF:
		opt := af.DefaultOptions()
		opt.PageSize = pageSize(cfg)
		if cfg.Regions > 0 {
			opt.Regions = cfg.Regions
		}
		opt.DeriveSeed = cfg.Seed
		db, err := af.Build(n.G, opt)
		return wrap(cfg, db, err)
	case OBF:
		return &Database{cfg: cfg, net: n, obfBytes: obf.DatabaseBytes(n.G, obfOptions(cfg))}, nil
	default:
		return nil, fmt.Errorf("privsp: unknown scheme %q", cfg.Scheme)
	}
}

func wrap(cfg Config, db *lbs.Database, err error) (*Database, error) {
	if err != nil {
		return nil, err
	}
	return &Database{cfg: cfg, db: db}, nil
}

func pageSize(cfg Config) int {
	if cfg.PageSize > 0 {
		return cfg.PageSize
	}
	return costmodel.Default().PageSize
}

// TotalBytes reports the database size (the space metric of the paper's
// evaluation). For OBF the footprint is computed once at build time —
// reading a size never constructs the decoy machinery.
func (d *Database) TotalBytes() int64 {
	if d.db != nil {
		return d.db.TotalBytes()
	}
	return d.obfBytes
}

// Save writes the built database as a versioned single-file container
// (conventionally ".psdb"): scheme, header, query plan and every page file,
// each data region checksummed. A saved database re-opens with Open in
// milliseconds — the build-once / serve-many workflow that sidesteps the
// paper's multi-hour preprocessing on every daemon start. OBF has no page
// files and cannot be saved.
func (d *Database) Save(path string) error {
	if d.db == nil {
		return fmt.Errorf("privsp: %s has no page files to persist", d.cfg.Scheme)
	}
	enc := pagefile.NewEnc(256)
	d.db.Plan.Encode(enc)
	return pagefile.WriteContainer(path, pagefile.ContainerSpec{
		Scheme: d.db.Scheme,
		Header: d.db.Header,
		Plan:   enc.Bytes(),
		Files:  d.db.Files,
	})
}

// OpenOption tunes Open.
type OpenOption func(*[]pagefile.ContainerOption)

// WithCachePages sets the per-file LRU page-cache capacity in pages. n <= 0
// disables caching; unset means a ~1 MB budget per file.
func WithCachePages(n int) OpenOption {
	return func(opts *[]pagefile.ContainerOption) {
		*opts = append(*opts, pagefile.WithCachePages(n))
	}
}

// WithoutDataVerify skips the checksum scan of the page data at open time
// (metadata is always verified). Right for containers larger than a
// startup disk pass should cost, on storage verified out of band;
// corruption then surfaces at query time instead of open time.
func WithoutDataVerify() OpenOption {
	return func(opts *[]pagefile.ContainerOption) {
		*opts = append(*opts, pagefile.WithoutDataVerify())
	}
}

// Open loads a database container written by Save. Pages are served from
// disk on demand through a bounded LRU page cache, so the database may
// exceed RAM and no preprocessing is redone; by default opening costs one
// sequential scan of the file to verify its checksums (WithoutDataVerify
// skips that). The client Result and the server-observed trace are
// identical to serving the freshly built database. Close the returned
// database when done.
func Open(path string, opts ...OpenOption) (*Database, error) {
	var copts []pagefile.ContainerOption
	for _, opt := range opts {
		opt(&copts)
	}
	c, err := pagefile.OpenContainer(path, copts...)
	if err != nil {
		return nil, err
	}
	scheme := Scheme(c.Scheme)
	switch scheme {
	case CI, PI, PIStar, HY, LM, AF:
	default:
		c.Close()
		return nil, fmt.Errorf("privsp: %s holds unsupported scheme %q", path, c.Scheme)
	}
	pl, err := plan.Decode(pagefile.NewDec(c.Plan))
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("privsp: %s: %w", path, err)
	}
	files := make([]pagefile.Reader, len(c.Files))
	for i, f := range c.Files {
		files[i] = f
	}
	return &Database{
		cfg:       Config{Scheme: scheme},
		db:        &lbs.Database{Scheme: c.Scheme, Header: c.Header, Files: files, Plan: pl},
		container: c,
	}, nil
}

// Close releases the on-disk container backing a database returned by Open.
// It is a no-op for databases built in memory. Servers must not be queried
// after their database is closed.
func (d *Database) Close() error {
	if d.container != nil {
		return d.container.Close()
	}
	return nil
}

// Plan renders the public query plan (empty for OBF, which has none).
func (d *Database) Plan() string {
	if d.db == nil {
		return ""
	}
	return d.db.Plan.String()
}

// Scheme returns the database's scheme.
func (d *Database) Scheme() Scheme { return d.cfg.Scheme }

// LBS exposes the underlying page-file database for hosting by the
// networked daemon (internal/server). It is nil for OBF, which has no PIR
// database to serve.
func (d *Database) LBS() *lbs.Database { return d.db }

// PlanPIRAccesses returns the fixed number of PIR page retrievals every
// query performs (0 for OBF, which has no fixed plan).
func (d *Database) PlanPIRAccesses() int {
	if d.db == nil {
		return 0
	}
	return d.db.Plan.TotalPIRAccesses()
}

func obfOptions(cfg Config) obf.Options {
	opt := obf.DefaultOptions()
	opt.PageSize = pageSize(cfg)
	if cfg.SetSize > 0 {
		opt.SetSize = cfg.SetSize
	}
	opt.Seed = cfg.Seed
	return opt
}

// Server answers shortest path queries on a built database under the
// simulated deployment of §7.1 (IBM 4764 SCP, Table 2 disk and 3G link).
type Server struct {
	cfg    Config
	lbsSrv *lbs.Server
	obfSrv *obf.Server
}

// Serve hosts a database with the default cost model.
func Serve(d *Database) (*Server, error) {
	return ServeWithModel(d, costmodel.Default())
}

// ServeWithModel hosts a database with a custom cost model.
func ServeWithModel(d *Database, model costmodel.Params) (*Server, error) {
	if d.cfg.Scheme == OBF {
		srv, err := obf.NewServer(d.net.G, model, obfOptions(d.cfg))
		if err != nil {
			return nil, err
		}
		return &Server{cfg: d.cfg, obfSrv: srv}, nil
	}
	srv, err := lbs.NewServer(d.db, model, nil)
	if err != nil {
		return nil, err
	}
	return &Server{cfg: d.cfg, lbsSrv: srv}, nil
}

// Result is the outcome of one query.
type Result = base.Result

// Stats carries the response-time components of Table 3.
type Stats = lbs.Stats

// QueryOption tunes one ShortestPath call.
type QueryOption func(*queryOptions)

type queryOptions struct {
	stats       *Stats
	trace       *string
	serverTrace *string
}

// WithStats captures the query's simulated Table 3 cost components into
// dst when the query succeeds.
func WithStats(dst *Stats) QueryOption {
	return func(o *queryOptions) { o.stats = dst }
}

// WithTrace captures the client-side access transcript — the view the
// client believes the service observed — into dst when the query succeeds.
func WithTrace(dst *string) QueryOption {
	return func(o *queryOptions) { o.trace = dst }
}

// WithServerTrace captures the service-observed access trace — the actual
// adversarial view — into dst when the query succeeds. For remote queries
// this is the trace the daemon recorded; for in-process queries it equals
// the client transcript (the deployments share the protocol code). Theorem
// 1 holds exactly when this is identical across all queries.
func WithServerTrace(dst *string) QueryOption {
	return func(o *queryOptions) { o.serverTrace = dst }
}

func applyOptions(opts []QueryOption) queryOptions {
	var o queryOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// deliver fills the caller's option destinations from a completed query.
func (o queryOptions) deliver(res *Result, serverTrace string) {
	if o.stats != nil {
		*o.stats = res.Stats
	}
	if o.trace != nil {
		*o.trace = res.Trace
	}
	if o.serverTrace != nil {
		*o.serverTrace = serverTrace
	}
}

// ShortestPath runs one private query from s to t (arbitrary coordinates;
// they are snapped to the nearest node of their host regions). ctx bounds
// the query: cancellation or an expired deadline aborts it at the next PIR
// round boundary and returns ctx.Err(); a PIR read still queued on the
// worker pool is abandoned, freeing the worker.
func (s *Server) ShortestPath(ctx context.Context, src, dst Point, opts ...QueryOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := applyOptions(opts)
	var (
		res *Result
		err error
	)
	if s.cfg.Scheme == OBF {
		res, err = s.obfSrv.Query(ctx, src, dst)
	} else {
		res, err = queryScheme(ctx, s.cfg.Scheme, s.lbsSrv, src, dst)
	}
	if err != nil {
		return nil, err
	}
	// In-process, the service's view is the client transcript itself.
	o.deliver(res, res.Trace)
	return res, nil
}

// queryScheme dispatches a scheme's query protocol over an arbitrary
// lbs.Service — the in-process server, one daemon connection, or a replica
// fleet; the protocol code cannot tell which deployment it runs against.
func queryScheme(ctx context.Context, scheme Scheme, svc lbs.Service, src, dst Point) (*Result, error) {
	switch scheme {
	case CI:
		return ci.Query(ctx, svc, src, dst)
	case PI, PIStar:
		return pi.Query(ctx, svc, src, dst)
	case HY:
		return hy.Query(ctx, svc, src, dst)
	case LM:
		return lm.Query(ctx, svc, src, dst)
	case AF:
		return af.Query(ctx, svc, src, dst)
	}
	return nil, fmt.Errorf("privsp: unknown scheme %q", scheme)
}

// CostModel returns the Table 2 parameters in force for documentation and
// what-if tuning.
func CostModel() costmodel.Params { return costmodel.Default() }

// PathService is the query surface shared by the in-process Server and the
// remote client returned by Dial: the same scheme protocol code runs behind
// both. The context governs the whole query (deadline and cancellation,
// honored at PIR round boundaries); options capture per-query extras —
// stats, the client transcript, the service-observed trace — without any
// per-connection state, so one service value serves concurrent queries.
type PathService interface {
	ShortestPath(ctx context.Context, src, dst Point, opts ...QueryOption) (*Result, error)
}

var (
	_ PathService = (*Server)(nil)
	_ PathService = (*RemoteServer)(nil)
)

// RemoteServer is a connection to a privspd daemon. It satisfies the same
// query surface as the in-process Server; the scheme's multi-round PIR
// protocol runs over the wire, and the daemon observes only the public
// plan's access pattern.
//
// One RemoteServer multiplexes any number of concurrent queries over its
// single TCP connection — every wire frame carries a query ID — so calling
// ShortestPath from many goroutines is safe and the daemon executes their
// batched PIR reads in parallel on its worker pools.
type RemoteServer struct {
	c      *client.Client
	scheme Scheme
}

// Dial connects to a privspd daemon serving a single database, bounded by
// the default connect timeout: an unresponsive address fails the dial
// rather than blocking forever.
func Dial(addr string) (*RemoteServer, error) { return DialDatabase(addr, "") }

// DialContext connects to a privspd daemon serving a single database. ctx
// governs the TCP connect and the protocol handshake; without a deadline of
// its own, a default 10 s budget applies.
func DialContext(ctx context.Context, addr string) (*RemoteServer, error) {
	return DialDatabaseContext(ctx, addr, "")
}

// DialDatabase connects with the default connect timeout and selects a
// hosted database by name; see DialDatabaseContext.
func DialDatabase(addr, database string) (*RemoteServer, error) {
	return DialDatabaseContext(context.Background(), addr, database)
}

// DialDatabaseContext connects to a privspd daemon and selects a hosted
// database by name (daemons may host several; empty selects the sole one).
// Dialing a multi-database daemon without a name yields an unbound,
// stats-only connection: Stats works, ShortestPath reports that a database
// must be named. ctx bounds the connect and handshake; without a deadline,
// the default 10 s budget applies, so an address that accepts TCP but never
// answers the handshake still fails promptly.
func DialDatabaseContext(ctx context.Context, addr, database string) (*RemoteServer, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Transient connect failures (a restarting daemon, a full accept
	// backlog) get a couple of jittered retries; daemon-side rejections and
	// context aborts fail immediately (see dialRetryable).
	var c *client.Client
	err := dialRetry.Do(ctx, dialRetryable, func(attempt int) error {
		if attempt > 0 {
			client.CountDialRetry()
		}
		var derr error
		c, derr = client.DialContext(ctx, addr, client.Options{Database: database})
		return derr
	})
	if err != nil {
		return nil, err
	}
	scheme := Scheme(c.Scheme())
	switch scheme {
	case CI, PI, PIStar, HY, LM, AF:
	case "": // unbound stats-only session
	default:
		c.Close()
		return nil, fmt.Errorf("privsp: daemon hosts unsupported scheme %q", scheme)
	}
	return &RemoteServer{c: c, scheme: scheme}, nil
}

// Scheme returns the scheme of the connected database.
func (r *RemoteServer) Scheme() Scheme { return r.scheme }

// Database returns the name of the connected database.
func (r *RemoteServer) Database() string { return r.c.Database() }

// ShortestPath runs one private query over the wire, multiplexed on the
// shared connection by a fresh query ID. The Result's Stats and Trace are
// the client-side view (identical to the in-process deployment); the
// WithServerTrace option captures what the daemon actually observed.
//
// Cancelling ctx aborts the query at the next PIR round boundary and ships
// a CANCEL frame so the daemon abandons the server-side work — a read
// queued on the worker pool is given up, freeing the worker. The daemon
// records the cancelled query's partial trace (always a prefix of a full
// trace) and counts it as cancelled or deadline-exceeded.
func (r *RemoteServer) ShortestPath(ctx context.Context, src, dst Point, opts ...QueryOption) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o := applyOptions(opts)
	if r.scheme == "" {
		return nil, fmt.Errorf("privsp: connection is not bound to a database; use DialDatabase")
	}
	// A query the daemon sheds with Busy is retried whole: each attempt is
	// a fresh query session with freshly drawn PIR randomness, never a
	// resent round (see retryBusy).
	var res *Result
	err := retryBusy(ctx, func() error {
		qs := r.c.StartQuery()
		var qerr error
		res, qerr = queryScheme(ctx, r.scheme, qs, src, dst)
		if qerr != nil {
			// Settle the query session. A context abort is a deliberate
			// cancellation the daemon records (the partial trace is what the
			// adversary saw) and counts; any other failure abandons the query
			// and the daemon discards it. The connection stays usable either
			// way.
			qs.Cancel(cancelReason(ctx, qerr))
			return qerr
		}
		// Complete the session; the returned trace is the daemon's
		// adversarial view of this query.
		trace, terr := qs.End(ctx)
		if terr != nil {
			qs.Cancel(cancelReason(ctx, terr))
			return terr
		}
		o.deliver(res, trace)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// cancelReason classifies a failed query for the daemon's accounting.
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

// DatabaseStats are one hosted database's serving counters and worker-pool
// gauges.
type DatabaseStats struct {
	Name        string
	Scheme      Scheme
	Queries     uint64
	PagesServed uint64
	// InFlight gauges the queries open right now; Cancelled and
	// DeadlineExceeded count the queries clients called off mid-flight
	// (context cancelled vs deadline expired). Their partial traces are
	// recorded — each is a prefix of the full-query trace.
	InFlight         int
	Cancelled        uint64
	DeadlineExceeded uint64
	// Workers is the database's PIR read pool size; BusyWorkers and
	// QueuedReads gauge its saturation at snapshot time.
	Workers     int
	BusyWorkers int
	QueuedReads int
}

// ServiceStats is a daemon's aggregate serving state.
type ServiceStats struct {
	ActiveConns int
	TotalConns  uint64
	Databases   []DatabaseStats
}

// Stats fetches the daemon's serving counters. Safe to call while queries
// are in flight on this connection — statistics travel outside any query
// session.
func (r *RemoteServer) Stats(ctx context.Context) (ServiceStats, error) {
	ws, err := r.c.ServerStats(ctx)
	if err != nil {
		return ServiceStats{}, err
	}
	return serviceStats(ws), nil
}

// serviceStats converts a daemon's wire statistics to the public view.
func serviceStats(ws wire.ServerStats) ServiceStats {
	st := ServiceStats{ActiveConns: int(ws.ActiveConns), TotalConns: ws.TotalConns}
	for _, db := range ws.Databases {
		st.Databases = append(st.Databases, DatabaseStats{
			Name:             db.Name,
			Scheme:           Scheme(db.Scheme),
			Queries:          db.Queries,
			PagesServed:      db.Pages,
			InFlight:         int(db.InFlight),
			Cancelled:        db.Cancelled,
			DeadlineExceeded: db.Deadline,
			Workers:          int(db.Workers),
			BusyWorkers:      int(db.BusyWorkers),
			QueuedReads:      int(db.QueuedReads),
		})
	}
	return st
}

// Close tears down the connection to the daemon.
func (r *RemoteServer) Close() error { return r.c.Close() }
