// Package gen synthesizes road networks with the structural signature of the
// paper's Table 1 datasets (Oldenburg plus five Digital Chart of the World
// extracts). The real files are not redistributable, so the generator
// reproduces the properties the paper's schemes actually depend on:
//
//   - sparsity: edge/node ratio between 1.02 and 1.16 (average degree ≈ 2.1–2.3);
//   - locality: a planar embedding where edge weights are Euclidean lengths,
//     so shortest paths are spatially coherent and cross few KD-tree regions;
//   - long degree-2 polyline chains between true intersections, as in DCW data;
//   - globally distinct x and distinct y coordinates, so the KD-tree
//     coordinate→region mapping is exact (see README "Departures from the
//     paper").
//
// Construction: lay a jittered grid of intersections, connect 4-neighbours,
// delete random edges (keeping the graph connected) until the target
// edge/node ratio is met, then subdivide edges with shape nodes to reach the
// target node count. Everything is deterministic in the seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
)

// Spec describes a network to synthesize.
type Spec struct {
	Name  string
	Nodes int // target node count (approximate; actual within a few %)
	Edges int // target undirected edge count
	Seed  int64
}

// Preset names one of the paper's Table 1 networks.
type Preset int

const (
	Oldenburg Preset = iota
	Germany
	Argentina
	Denmark
	India
	NorthAmerica
	numPresets
)

var presetSpecs = [numPresets]Spec{
	{Name: "Oldenburg", Nodes: 6105, Edges: 7029, Seed: 1},
	{Name: "Germany", Nodes: 28867, Edges: 30429, Seed: 2},
	{Name: "Argentina", Nodes: 85287, Edges: 88357, Seed: 3},
	{Name: "Denmark", Nodes: 136377, Edges: 143612, Seed: 4},
	{Name: "India", Nodes: 149566, Edges: 155483, Seed: 5},
	{Name: "NorthAmerica", Nodes: 175813, Edges: 179179, Seed: 6},
}

// String returns the short dataset name used in the paper's charts.
func (p Preset) String() string {
	if p < 0 || p >= numPresets {
		return fmt.Sprintf("Preset(%d)", int(p))
	}
	return presetSpecs[p].Name
}

// AllPresets lists the six Table 1 networks in paper order.
func AllPresets() []Preset {
	return []Preset{Oldenburg, Germany, Argentina, Denmark, India, NorthAmerica}
}

// PresetSpec returns the Table 1 node/edge counts for p scaled by scale
// (scale 1.0 reproduces the paper's sizes; smaller values shrink the network
// proportionally for fast test/bench runs).
func PresetSpec(p Preset, scale float64) Spec {
	if p < 0 || p >= numPresets {
		panic(fmt.Sprintf("gen: invalid preset %d", int(p)))
	}
	s := presetSpecs[p]
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("gen: scale %v out of (0,1]", scale))
	}
	s.Nodes = max(int(float64(s.Nodes)*scale), 60)
	s.Edges = max(int(float64(s.Edges)*scale), s.Nodes+s.Nodes/50)
	return s
}

// Generate synthesizes the road network for spec. The result is connected,
// undirected, and has Euclidean-length weights.
func Generate(spec Spec) *graph.Graph {
	rng := rand.New(rand.NewSource(spec.Seed))

	// Intersection count: solve for the grid so that after subdivision the
	// node budget is met. With ratio r = Edges/Nodes, a pruned grid with I
	// intersections has about r*I edges... more simply: the share of
	// intersections among all nodes equals roughly (degree-2 chain length).
	ratio := float64(spec.Edges) / float64(spec.Nodes) // ≈ 1.02..1.16
	// A pruned 4-grid with I intersections has about 1.55*I edges; after
	// adding k shape nodes per edge, nodes = I + k*1.55*I and edges grow by
	// the same k*1.55*I. Choose I so the final ratio lands near the target:
	// edges/nodes = (1.55I + S)/(I + S) with S shape nodes total, so
	// S = I*(1.55-ratio)/(ratio-1).
	// Guard the denominator for ratio→1.
	den := math.Max(ratio-1, 0.02)
	intersections := int(float64(spec.Nodes) * den / (0.55 + den))
	if intersections < 16 {
		intersections = 16
	}
	side := int(math.Sqrt(float64(intersections)))
	if side < 4 {
		side = 4
	}

	g := graph.NewUndirected()
	// Jittered grid of intersections in [0, side] x [0, side].
	idx := make([][]graph.NodeID, side)
	for i := range idx {
		idx[i] = make([]graph.NodeID, side)
		for j := range idx[i] {
			p := geom.Point{
				X: float64(i) + 0.15 + 0.7*rng.Float64(),
				Y: float64(j) + 0.15 + 0.7*rng.Float64(),
			}
			idx[i][j] = g.AddNode(p)
		}
	}
	type gridEdge struct{ u, v graph.NodeID }
	var candidates []gridEdge
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if i+1 < side {
				candidates = append(candidates, gridEdge{idx[i][j], idx[i+1][j]})
			}
			if j+1 < side {
				candidates = append(candidates, gridEdge{idx[i][j], idx[i][j+1]})
			}
		}
	}
	// Keep a random spanning tree, then add random remaining candidates
	// until the intersection-graph edge budget (≈1.55 per intersection,
	// bounded by availability) is met.
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	parent := make([]int, g.NumNodes())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	edgeBudget := int(1.55 * float64(g.NumNodes()))
	if edgeBudget > len(candidates) {
		edgeBudget = len(candidates)
	}
	added := 0
	var deferred []gridEdge
	for _, c := range candidates {
		ru, rv := find(int(c.u)), find(int(c.v))
		if ru != rv {
			parent[ru] = rv
			g.MustAddEdge(c.u, c.v, dist(g, c.u, c.v))
			added++
		} else {
			deferred = append(deferred, c)
		}
	}
	for _, c := range deferred {
		if added >= edgeBudget {
			break
		}
		g.MustAddEdge(c.u, c.v, dist(g, c.u, c.v))
		added++
	}

	// Subdivide edges with degree-2 shape nodes until the node target is
	// reached. Longer edges are subdivided first, mimicking DCW polylines.
	g = subdivide(g, spec.Nodes, rng)

	ensureDistinctCoords(g)
	return g
}

// GeneratePreset is Generate for a named Table 1 network at the given scale.
func GeneratePreset(p Preset, scale float64) *graph.Graph {
	return Generate(PresetSpec(p, scale))
}

func dist(g *graph.Graph, u, v graph.NodeID) float64 {
	d := g.Point(u).Dist(g.Point(v))
	if d <= 0 {
		d = 1e-6
	}
	return d
}

// subdivide rebuilds g with extra shape nodes along its edges until the node
// count reaches target. Each chosen edge u–v of length w becomes a chain
// u–s1–…–sk–v whose total length stays w (each segment gets a jittered
// share), preserving all shortest-path distances exactly.
func subdivide(g *graph.Graph, target int, rng *rand.Rand) *graph.Graph {
	type undirEdge struct {
		u, v graph.NodeID
		w    float64
	}
	var edges []undirEdge
	g.UndirectedEdges(func(e graph.Edge) bool {
		edges = append(edges, undirEdge{e.From, e.To, e.W})
		return true
	})
	need := target - g.NumNodes()
	if need < 0 {
		need = 0
	}
	// Distribute shape nodes proportionally to edge length.
	total := 0.0
	for _, e := range edges {
		total += e.w
	}
	shape := make([]int, len(edges))
	assigned := 0
	for i, e := range edges {
		shape[i] = int(float64(need) * e.w / total)
		assigned += shape[i]
	}
	// Hand out the remainder to the longest edges.
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return edges[order[a]].w > edges[order[b]].w })
	for i := 0; assigned < need; i = (i + 1) % len(order) {
		shape[order[i]]++
		assigned++
	}

	out := graph.NewUndirected()
	for i := 0; i < g.NumNodes(); i++ {
		out.AddNode(g.Point(graph.NodeID(i)))
	}
	for i, e := range edges {
		k := shape[i]
		if k == 0 {
			out.MustAddEdge(e.u, e.v, e.w)
			continue
		}
		// Jittered interior fractions.
		fracs := make([]float64, k)
		for j := range fracs {
			fracs[j] = (float64(j+1) + 0.4*(rng.Float64()-0.5)) / float64(k+1)
		}
		sort.Float64s(fracs)
		prev := e.u
		prevFrac := 0.0
		pu, pv := g.Point(e.u), g.Point(e.v)
		for _, f := range fracs {
			n := out.AddNode(geom.Lerp(pu, pv, f))
			out.MustAddEdge(prev, n, e.w*(f-prevFrac))
			prev, prevFrac = n, f
		}
		out.MustAddEdge(prev, e.v, e.w*(1-prevFrac))
	}
	return out
}

// ensureDistinctCoords nudges coordinates so that no two nodes share an x or
// a y value. The nudge is deterministic and far smaller than any edge
// length, so weights (already fixed) stay consistent with geometry for the
// purposes of partitioning. Required so the KD-tree point→region lookup is
// exact (README "Departures from the paper").
func ensureDistinctCoords(g *graph.Graph) {
	n := g.NumNodes()
	order := make([]int, n)
	for axis := 0; axis < 2; axis++ {
		for i := range order {
			order[i] = i
		}
		coord := func(i int) float64 {
			p := g.Point(graph.NodeID(i))
			if axis == 0 {
				return p.X
			}
			return p.Y
		}
		sort.Slice(order, func(a, b int) bool {
			if coord(order[a]) != coord(order[b]) {
				return coord(order[a]) < coord(order[b])
			}
			return order[a] < order[b]
		})
		const eps = 1e-9
		prev := math.Inf(-1)
		for _, i := range order {
			c := coord(i)
			if c <= prev {
				c = prev + eps
				p := g.Point(graph.NodeID(i))
				if axis == 0 {
					p.X = c
				} else {
					p.Y = c
				}
				g.SetPoint(graph.NodeID(i), p)
			}
			prev = c
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
