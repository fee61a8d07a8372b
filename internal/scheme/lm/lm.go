// Package lm implements the Landmark baseline of §4: the ALT pre-computation
// of Goldberg & Harrelson adapted to the private setting. Every node's
// record carries a vector of shortest-path distances to a set of anchor
// nodes; the client runs A* guided by the landmark triangle-inequality
// bound, fetching one region page per round as the search expands into new
// regions, and padding with dummy retrievals up to the fixed plan.
//
// The paper derives the page quota by running all V² queries offline; that
// is quadratic, so by default the quota comes from a large sampled workload
// plus extremal pairs (README "Departures from the paper"). Small networks
// can use DeriveAllPairs for the exact paper procedure.
package lm

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/kdtree"
	"repro/internal/lbs"
	"repro/internal/pagefile"
	"repro/internal/plan"
	"repro/internal/scheme/base"
)

// Options configures the build.
type Options struct {
	PageSize int
	// Landmarks is the anchor count (Figure 5's tuning knob).
	Landmarks int
	// DeriveQueries sizes the sampled workload for plan derivation.
	DeriveQueries int
	// DeriveAllPairs derives the plan exhaustively (paper procedure; only
	// viable on small networks).
	DeriveAllPairs bool
	// DeriveSeed makes plan derivation reproducible.
	DeriveSeed int64
	// SafetyMargin multiplies the sampled quota to cover unsampled pairs
	// (>= 1; ignored for DeriveAllPairs).
	SafetyMargin float64
}

// DefaultOptions matches the paper's tuned configuration for mid-size
// networks (5 anchors were optimal on Argentina, Figure 5).
func DefaultOptions() Options {
	return Options{
		PageSize:      pagefile.DefaultPageSize,
		Landmarks:     5,
		DeriveQueries: 512,
		DeriveSeed:    1,
		SafetyMargin:  1.25,
	}
}

// SchemeName identifies LM databases.
const SchemeName = "LM"

// Build pre-processes the network into an LM database.
func Build(g *graph.Graph, opt Options) (*lbs.Database, error) {
	if opt.PageSize == 0 {
		opt.PageSize = pagefile.DefaultPageSize
	}
	if opt.Landmarks < 1 {
		return nil, fmt.Errorf("lm: landmark count %d < 1", opt.Landmarks)
	}
	if opt.SafetyMargin < 1 {
		opt.SafetyMargin = 1
	}
	anchors := graph.SelectLandmarks(g, opt.Landmarks)
	lms := graph.BuildLandmarks(g, anchors)

	codec := &base.RegionCodec{G: g, Landmarks: lms.Dist, LandmarkDim: len(anchors)}
	part, err := kdtree.BuildPacked(g, codec.SizeFunc(), opt.PageSize)
	if err != nil {
		return nil, fmt.Errorf("lm: partitioning: %w", err)
	}
	codec.Part = part

	fd := pagefile.NewFile(base.FileData, opt.PageSize)
	firstPage, err := base.BuildRegionData(fd, codec, 1)
	if err != nil {
		return nil, fmt.Errorf("lm: region data: %w", err)
	}

	// Derive the page quota: decode the regions once and replay the exact
	// client algorithm, counting fetched pages.
	regions, err := decodeAll(fd, part.NumRegions, len(anchors))
	if err != nil {
		return nil, err
	}
	maxPages := 2
	measure := func(s, t graph.NodeID) error {
		n, err := simulate(part, regions, len(anchors), g.Directed(), g.Point(s), g.Point(t), math.MaxInt32)
		if err != nil {
			return err
		}
		if n > maxPages {
			maxPages = n
		}
		return nil
	}
	if opt.DeriveAllPairs {
		for s := 0; s < g.NumNodes(); s++ {
			for t := 0; t < g.NumNodes(); t++ {
				if err := measure(graph.NodeID(s), graph.NodeID(t)); err != nil {
					return nil, err
				}
			}
		}
	} else {
		rng := rand.New(rand.NewSource(opt.DeriveSeed))
		for q := 0; q < opt.DeriveQueries; q++ {
			if err := measure(graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))); err != nil {
				return nil, err
			}
		}
		for _, s := range corners(g) {
			for _, t := range corners(g) {
				if err := measure(s, t); err != nil {
					return nil, err
				}
			}
		}
		maxPages = int(math.Ceil(float64(maxPages) * opt.SafetyMargin))
		if maxPages > fd.NumPages() {
			maxPages = fd.NumPages()
		}
	}

	// Plan: round 2 fetches the two endpoint regions; every further round
	// fetches one page (§4).
	rounds := []plan.Round{{Fetches: []plan.Fetch{{File: base.FileData, Count: 2}}}}
	for i := 2; i < maxPages; i++ {
		rounds = append(rounds, plan.Round{Fetches: []plan.Fetch{{File: base.FileData, Count: 1}}})
	}
	qp := plan.Plan{Rounds: rounds}
	hdr := &base.Header{
		Scheme:               SchemeName,
		Directed:             g.Directed(),
		NumRegions:           part.NumRegions,
		Tree:                 part.Tree,
		RegionFirstPage:      firstPage,
		ClusterPages:         1,
		LookupEntriesPerPage: 1,
		Plan:                 qp,
		Params: map[string]int64{
			base.ParamLMDim: int64(len(anchors)),
			"maxPages":      int64(maxPages),
		},
	}
	return &lbs.Database{
		Scheme: SchemeName,
		Header: hdr.Encode(),
		Files:  []pagefile.Reader{fd},
		Plan:   qp,
	}, nil
}

// corners picks extremal nodes (bounding-box corners) whose pairs tend to
// maximize the search footprint.
func corners(g *graph.Graph) []graph.NodeID {
	if g.NumNodes() == 0 {
		return nil
	}
	ids := make([]graph.NodeID, 4)
	best := [4]float64{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Point(graph.NodeID(i))
		if p.X+p.Y < best[0] {
			best[0], ids[0] = p.X+p.Y, graph.NodeID(i)
		}
		if p.X-p.Y < best[1] {
			best[1], ids[1] = p.X-p.Y, graph.NodeID(i)
		}
		if p.X+p.Y > best[2] {
			best[2], ids[2] = p.X+p.Y, graph.NodeID(i)
		}
		if p.X-p.Y > best[3] {
			best[3], ids[3] = p.X-p.Y, graph.NodeID(i)
		}
	}
	return ids
}

// decodeAll pre-decodes every region page (build-time plan derivation).
func decodeAll(fd *pagefile.File, numRegions, lmDim int) ([][]base.RegionNode, error) {
	out := make([][]base.RegionNode, numRegions)
	for r := 0; r < numRegions; r++ {
		page, err := fd.Page(r)
		if err != nil {
			return nil, err
		}
		nodes, err := base.DecodeRegion(page, lmDim, 0)
		if err != nil {
			return nil, err
		}
		out[r] = nodes
	}
	return out, nil
}

// fetchFn retrieves a region's decoded nodes, charging whatever medium
// backs it (memory during plan derivation, the PIR connection at query
// time).
type fetchFn func(r kdtree.RegionID, first bool) ([]base.RegionNode, error)

// run executes the client-side LM search: snap the endpoints, then A* with
// landmark bounds, fetching regions as the frontier crosses into them.
// Returns the result and the number of pages fetched.
func run(
	tree *kdtree.Tree, directed bool, lmDim int,
	sPt, tPt geom.Point,
	fetch fetchFn,
	pageBudget int,
) (cost float64, path []graph.NodeID, sNode, tNode graph.NodeID, pages int, err error) {
	rs, rt := tree.Locate(sPt), tree.Locate(tPt)
	cg := base.NewClientGraph(directed)
	fetched := map[kdtree.RegionID]bool{}
	get := func(r kdtree.RegionID, first bool) ([]base.RegionNode, error) {
		nodes, err := fetch(r, first)
		if err != nil {
			return nil, err
		}
		fetched[r] = true
		pages++
		cg.AddRegionNodes(nodes)
		return nodes, nil
	}
	sNodes, err := get(rs, true)
	if err != nil {
		return 0, nil, 0, 0, pages, err
	}
	var tNodes []base.RegionNode
	if rt == rs {
		// The plan still requires two first-round fetches; duplicate.
		tNodes, err = get(rt, true)
	} else {
		tNodes, err = get(rt, true)
	}
	if err != nil {
		return 0, nil, 0, 0, pages, err
	}
	sNode = cg.Nearest(sPt, sNodes)
	tNode = cg.Nearest(tPt, tNodes)
	dstVec := cg.LMVector(tNode)
	h := func(v graph.NodeID) float64 {
		vec := cg.LMVector(v)
		if vec == nil || dstVec == nil {
			return 0
		}
		bound := 0.0
		for k := range dstVec {
			if d := math.Abs(vec[k] - dstVec[k]); d > bound {
				bound = d
			}
		}
		return bound
	}
	var fetchErr error
	onSettle := func(v graph.NodeID) bool {
		if cg.Has(v) {
			return true
		}
		r, ok := cg.RegionHint(v)
		if !ok {
			fetchErr = fmt.Errorf("lm: node %d has no region hint", v)
			return false
		}
		if fetched[r] {
			return true // page already here; v was just a dangling ref
		}
		if pages >= pageBudget {
			fetchErr = fmt.Errorf("lm: page budget %d exhausted", pageBudget)
			return false
		}
		if _, err := get(r, false); err != nil {
			fetchErr = err
			return false
		}
		return true
	}
	cost, path = cg.Search(sNode, tNode, h, nil, onSettle)
	return cost, path, sNode, tNode, pages, fetchErr
}

// simulate replays the client algorithm against in-memory regions and
// returns how many pages it would fetch.
func simulate(part *kdtree.Partition, regions [][]base.RegionNode, lmDim int, directed bool, sPt, tPt geom.Point, budget int) (int, error) {
	_, _, _, _, pages, err := run(part.Tree, directed, lmDim, sPt, tPt,
		func(r kdtree.RegionID, first bool) ([]base.RegionNode, error) { return regions[r], nil },
		budget)
	return pages, err
}

// Query answers one shortest path query against an LM server, following the
// fixed plan with dummy padding.
func Query(ctx context.Context, svc lbs.Service, sPt, tPt geom.Point) (*base.Result, error) {
	conn := svc.Connect(ctx)
	hdr, err := base.DownloadHeader(conn)
	if err != nil {
		return nil, err
	}
	if hdr.Scheme != SchemeName {
		return nil, fmt.Errorf("lm: server hosts %q", hdr.Scheme)
	}
	lmDim := int(hdr.MustParam(base.ParamLMDim))
	maxPages := int(hdr.MustParam("maxPages"))
	var tm base.Timer

	firstRound := true
	fetch := func(r kdtree.RegionID, first bool) ([]base.RegionNode, error) {
		tm.Stop()
		if first {
			if firstRound {
				conn.BeginRound()
				firstRound = false
			}
		} else {
			conn.BeginRound()
		}
		page, err := conn.Fetch(base.FileData, int(hdr.RegionFirstPage[r]))
		if err != nil {
			return nil, err
		}
		tm.Start()
		return base.DecodeRegion(page, lmDim, 0)
	}
	tm.Start()
	cost, path, sNode, tNode, pages, err := run(hdr.Tree, hdr.Directed, lmDim, sPt, tPt, fetch, maxPages)
	tm.Stop()
	if err != nil {
		return nil, err
	}
	// Dummy rounds up to the plan.
	for ; pages < maxPages; pages++ {
		conn.BeginRound()
		if err := base.DummyFetch(conn, base.FileData); err != nil {
			return nil, err
		}
	}
	conn.AddClientTime(tm.Total())

	res := &base.Result{
		Cost:          cost,
		SnappedSource: sNode,
		SnappedDest:   tNode,
		Stats:         conn.Stats(),
		Trace:         conn.Trace(),
	}
	if !math.IsInf(cost, 1) {
		res.Path = path
	}
	if err := conn.ConformsTo(hdr.Plan); err != nil {
		return nil, err
	}
	return res, nil
}
