package apps

import (
	"sort"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
	"repro/internal/propagation"
	"repro/internal/storage"
)

// Damping is the PageRank random-jump factor d.
const Damping = 0.85

// NR is network ranking: iterative PageRank over the graph (Appendix D,
// Algorithm 1). Its access pattern is the canonical propagation workload.
type NR struct {
	iterations int
}

// NewNR creates the network-ranking application with the given iteration
// count.
func NewNR(iterations int) *NR { return &NR{iterations: iterations} }

func (a *NR) Name() string    { return "NR" }
func (a *NR) Iterations() int { return a.iterations }

// nrProgram is the propagation program of Algorithm 1: transfer sends
// rank*d/outdegree along each edge; combine sums the received partial ranks
// and adds the random-jump term.
type nrProgram struct {
	g *graph.Graph
	n float64
}

// NewNRProgram returns the PageRank propagation program over g, for
// callers that drive propagation state themselves (job planning, cascaded
// and tree-aggregated runs).
func NewNRProgram(g *graph.Graph) propagation.Program[float64] {
	return &nrProgram{g: g, n: float64(g.NumVertices())}
}

func (p *nrProgram) Init(graph.VertexID) float64 { return 1 / p.n }

func (p *nrProgram) Transfer(src graph.VertexID, rank float64, dst graph.VertexID, emit propagation.Emit[float64]) {
	emit(dst, rank*Damping/float64(p.g.OutDegree(src)))
}

func (p *nrProgram) Combine(_ graph.VertexID, _ float64, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum + (1-Damping)/p.n
}

func (p *nrProgram) Bytes(float64) int64 { return 8 }

func (p *nrProgram) Associative() bool { return true }

func (p *nrProgram) Merge(_ graph.VertexID, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum
}

// RunPropagation runs the configured number of PageRank iterations and
// returns the final rank vector.
func (a *NR) RunPropagation(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement, opt propagation.Options) (any, engine.Metrics, error) {
	prog := NewNRProgram(pg.G)
	st := propagation.NewState(pg, prog)
	st, m, err := propagation.RunIterations(r, pg, pl, prog, st, opt, a.iterations)
	if err != nil {
		return nil, m, err
	}
	return st.Values, m, nil
}

// nrMR is the MapReduce implementation of Algorithm 2: map computes partial
// ranks per partition into a hash table (one emission per distinct
// destination seen in the partition) and reduce sums them.
type nrMR struct {
	g     *graph.Graph
	ranks []float64
}

func (p *nrMR) Map(pi *storage.PartInfo, g *graph.Graph, emit func(graph.VertexID, float64)) {
	rTable := make(map[graph.VertexID]float64)
	for _, u := range pi.Vertices {
		deg := g.OutDegree(u)
		if deg == 0 {
			continue
		}
		delta := p.ranks[u] * Damping / float64(deg)
		for _, v := range g.Neighbors(u) {
			rTable[v] += delta
		}
	}
	// Emit in vertex order: map iteration order would scramble the value
	// sequence reaching each reducer, and float summation in Reduce is not
	// order-independent — run-to-run results would differ in the last ULP.
	dsts := make([]graph.VertexID, 0, len(rTable))
	for v := range rTable {
		dsts = append(dsts, v)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, v := range dsts {
		emit(v, rTable[v])
	}
}

func (p *nrMR) Reduce(_ graph.VertexID, values []float64) float64 {
	sum := 0.0
	for _, r := range values {
		sum += r
	}
	return sum + (1-Damping)/float64(p.g.NumVertices())
}

func (p *nrMR) PairBytes(graph.VertexID, float64) int64 { return 12 }
func (p *nrMR) ResultBytes(float64) int64               { return 12 }

// RunMapReduce runs the configured number of iterations with the MapReduce
// primitive, re-distributing the rank vector between iterations.
func (a *NR) RunMapReduce(r *engine.Runner, pg *storage.PartitionedGraph, pl *partition.Placement) (any, engine.Metrics, error) {
	n := pg.G.NumVertices()
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	var total engine.Metrics
	for it := 0; it < a.iterations; it++ {
		prog := &nrMR{g: pg.G, ranks: ranks}
		res, m, err := mapreduce.Run[graph.VertexID, float64, float64](r, pg, pl, prog, mapreduce.Options{StatePerVertexBytes: 8})
		if err != nil {
			return nil, total, err
		}
		total.Add(m)
		next := make([]float64, n)
		jump := (1 - Damping) / float64(n)
		for v := range next {
			next[v] = jump // vertices with no inbound mass
		}
		for v, r := range res {
			next[v] = r
		}
		ranks = next
	}
	return ranks, total, nil
}

// ReferenceNR computes PageRank sequentially with the same semantics as
// both distributed implementations.
func ReferenceNR(g *graph.Graph, iterations int) []float64 {
	n := g.NumVertices()
	ranks := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, n)
		jump := (1 - Damping) / float64(n)
		for v := range next {
			next[v] = jump
		}
		for u := 0; u < n; u++ {
			deg := g.OutDegree(graph.VertexID(u))
			if deg == 0 {
				continue
			}
			delta := ranks[u] * Damping / float64(deg)
			for _, v := range g.Neighbors(graph.VertexID(u)) {
				next[v] += delta
			}
		}
		ranks = next
	}
	return ranks
}
