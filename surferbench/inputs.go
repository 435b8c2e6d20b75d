package main

import (
	"bytes"
	"encoding/json"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/jobsvc"
)

// size scales the workloads: full is what the benchmark measures, tiny is
// what the smoke tests run.
type size struct {
	// machines is the simulated cluster size, levels log2 of the partition
	// count, iterations the PageRank iteration count on the first two
	// workloads.
	machines   int
	levels     int
	iterations int
	// socialVertices, rmatScale and serviceVertices size the graphs of the
	// three workloads; serviceLevels is log2 of the third's partition count
	// and jobs its submission count.
	socialVertices  int
	rmatScale       int
	serviceVertices int
	serviceLevels   int
	jobs            int
	// faultHorizon is the virtual-time span the third workload's faults
	// are drawn over: the first sixth or so of its makespan, so every seed
	// drops transfers (the retry path runs) while the faults' share of the
	// makespan stays small.
	faultHorizon float64
}

var (
	fullSize = size{
		machines: 32, levels: 6, iterations: 20,
		socialVertices: 131072, rmatScale: 15, serviceVertices: 16384, serviceLevels: 5, jobs: 120,
		faultHorizon: 0.05,
	}
	tinySize = size{
		machines: 8, levels: 4, iterations: 3,
		socialVertices: 2048, rmatScale: 10, serviceVertices: 1024, serviceLevels: 3, jobs: 12,
		faultHorizon: 0.05,
	}
)

// arrivalGap is the mean gap between submissions on the third workload, in
// virtual seconds: the 120 jobs arrive within a few hundredths of a second
// of a run several times that long, so the service drains a backlog.
const arrivalGap = 0.0002

// systemSeed drives the program's own randomized choices (partitioner
// matching, random placement, replica layout, the T3 slow-NIC draw). It is
// a setting of the system under test, so it stays fixed while --seed varies
// the inputs.
const systemSeed = 42

// inputs are the bytes a workload's program receives, generated from the
// seed before any timing starts, plus the expected outputs the checks
// compare against.
type inputs struct {
	graph  []byte
	jobs   []byte // surfer-jobs file (multitenant-observed)
	faults []byte // fault-schedule file (multitenant-observed)
	// wantRanks is apps.ReferenceNR on the generated graph (the PageRank
	// workloads).
	wantRanks []float64
	// ops is the number of checked operations in one repetition: its rank
	// vector, or each submission in jobs.
	ops int
}

func encodeGraph(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pageRankInputs serializes g and computes the rank vector the program must
// reproduce.
func pageRankInputs(g *graph.Graph, sz size) (*inputs, error) {
	data, err := encodeGraph(g)
	if err != nil {
		return nil, err
	}
	return &inputs{graph: data, wantRanks: apps.ReferenceNR(g, sz.iterations), ops: 1}, nil
}

func genSocialPageRank(seed int64, sz size) (*inputs, error) {
	return pageRankInputs(graph.Social(graph.DefaultSocial(sz.socialVertices, seed)), sz)
}

func genRMATPageRank(seed int64, sz size) (*inputs, error) {
	return pageRankInputs(graph.RMAT(graph.DefaultRMAT(sz.rmatScale, 16, seed)), sz)
}

// genMultitenant draws the shared graph, the jobs file (4 tenants,
// priorities 0–2, 1–3 iterations) and a transient fault schedule with link
// degradations, drop windows and slowdowns but no kills.
func genMultitenant(seed int64, sz size) (*inputs, error) {
	data, err := encodeGraph(graph.Social(graph.DefaultSocial(sz.serviceVertices, seed)))
	if err != nil {
		return nil, err
	}
	wl := jobsvc.GenerateWorkload(jobsvc.GenConfig{
		Jobs: sz.jobs, Tenants: 4, MaxPriority: 2, MaxIterations: 3, MeanGap: arrivalGap, Seed: seed,
	})
	// The seed draws who submits what when; the work itself is the same
	// multiset for every seed (round-robin over app × 1–3 iterations), so
	// the simulated totals move with the program, not with the draw.
	for i := range wl.Jobs {
		wl.Jobs[i].App = jobsvc.Apps[i%len(jobsvc.Apps)]
		wl.Jobs[i].Iterations = 1 + (i/len(jobsvc.Apps))%3
	}
	var jobs bytes.Buffer
	if err := jobsvc.WriteWorkload(&jobs, wl); err != nil {
		return nil, err
	}
	sched, _ := fault.Generate(fault.GenConfig{
		Machines: sz.machines, Horizon: sz.faultHorizon,
		Degrades: 8, Drops: 8, Slowdowns: 4, Seed: seed,
	})
	faults, err := json.Marshal(faultFile(sched))
	if err != nil {
		return nil, err
	}
	return &inputs{graph: data, jobs: jobs.Bytes(), faults: faults, ops: len(wl.Jobs)}, nil
}

// faultFile converts a generated transient schedule to the fault-file form
// the CLIs read.
func faultFile(s *fault.Schedule) *fault.File {
	f := &fault.File{}
	for _, l := range s.Links {
		fl := fault.FileLink{Src: int(l.Src), Dst: int(l.Dst), From: l.From, Until: l.Until, Factor: l.Factor}
		if l.Drop {
			fl.Factor = 0
			f.Drops = append(f.Drops, fl)
		} else {
			f.Links = append(f.Links, fl)
		}
	}
	for _, sd := range s.Slowdowns {
		f.Slowdowns = append(f.Slowdowns, fault.FileSlowdown{
			Machine: int(sd.Machine), From: sd.From, Until: sd.Until, Factor: sd.Factor,
		})
	}
	return f
}

// pagerankTopology is T2 with two pods; serviceTopology is T3.
func pagerankTopology(sz size) *cluster.Topology {
	return cluster.NewT2(cluster.T2Config{Machines: sz.machines, Pods: 2, Levels: 1})
}

func serviceTopology(sz size) *cluster.Topology {
	return cluster.NewT3(sz.machines, systemSeed)
}
