// Package repro reproduces Mouratidis & Yiu, "Shortest Path Computation
// with No Information Leakage" (PVLDB 5(8): 692–703, 2012): PIR-based
// shortest path schemes on road networks where the location-based service
// learns nothing about the queries it answers.
//
// The public API lives in the privsp subpackage; README.md documents the
// architecture, including the context-first query surface
// (privsp.PathService: ShortestPath(ctx, src, dst, ...QueryOption), with
// deadlines and cancellation honored at PIR round boundaries so an aborted
// query's service-visible trace stays a prefix of a full one), the
// networked deployment (cmd/privspd daemon and the privsp.DialContext
// remote client, whose single TCP connection multiplexes concurrent
// queries by query ID and can CANCEL in-flight work), and the build-once /
// serve-many persistence workflow (privsp.Database.Save / privsp.Open,
// "privsp build -out" / "privspd -db": the expensive preprocessing runs
// once and the daemon serves the resulting .psdb container straight from
// disk). The daemon is observable without being leaky: internal/telemetry
// backs a privspd -admin endpoint (Prometheus-text /metrics, /healthz,
// pprof) whose exported series are functions of the adversary-visible
// trace plus timing only — never of query contents (README
// "Observability"). Every PIR store implements one contract, pir.Store,
// whose only read is ReadBatchInto and whose pir.Caps tell the serving
// layer how to route it. Serving capacity is scan throughput by
// construction — every PIR answer streams the whole file — so the XOR PIR
// store carries a segmented parallel kernel that fans each scan across a
// worker group (its pir.ShareServer face; server.Options.ScanWorkers /
// privspd -scan-workers / lbs.WithScanWorkers; byte-identical to serial,
// charged against the same worker pool). The
// benchmarks in bench_test.go regenerate every table and figure (see also
// cmd/experiments).
package repro
