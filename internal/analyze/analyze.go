// Package analyze turns a raw trace event stream into attributed causal
// reports: it rebuilds the causal DAG from the Seq/Cause edges the engine
// threads through every event, extracts the critical path that bounds the
// makespan, and attributes every second of it to one blame category — the
// machine-checkable form of the paper's claim that network time, not
// compute, dominates large-graph jobs on uneven topologies (§6).
//
// Everything here is a pure function of the event stream (plus the topology
// header for the link report), so reports inherit the engine's determinism
// contract: byte-identical output for every worker count.
package analyze

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// Blame categories: every second of makespan lands in exactly one.
const (
	// CatCompute is task busy time on the path (compute + local disk).
	CatCompute = "compute"
	// CatNIC is transfer wire time plus egress-bound queueing delay.
	CatNIC = "nic-serialization"
	// CatIncast is transfer queueing delay where the receiver's ingress NIC
	// was the binding constraint.
	CatIncast = "incast-stall"
	// CatRetry is fault-model delay: failure→heartbeat→retry gaps, dropped
	// transfers' wasted NIC holds and backoff waits.
	CatRetry = "retry-backoff"
	// CatBarrier is time waiting at a stage barrier for an off-path
	// straggler: gaps the causal chain cannot explain with work or faults.
	CatBarrier = "barrier-skew"
	// CatCheckpoint is path time spent inside ckpt-*/restore-* jobs.
	CatCheckpoint = "checkpoint-io"
	// CatQueued is multi-tenant scheduling delay on the path: time a job
	// spent waiting in the submission queue before admission, or suspended
	// between a preemption and its resume.
	CatQueued = "queued-preempted"
	// CatMigration is elasticity cost on the path: live partition-migration
	// wire time and queueing, and waits bound by drain/join events.
	CatMigration = "migration"
)

// Categories lists every blame category in report order.
var Categories = []string{CatCompute, CatNIC, CatIncast, CatRetry, CatBarrier, CatCheckpoint, CatQueued, CatMigration}

// PathStep is one event on the critical path, with the seconds the walk
// attributed while consuming it (its own span pieces plus the gap to its
// effect).
type PathStep struct {
	Seq     int     `json:"seq"`
	Kind    string  `json:"kind"`
	Job     string  `json:"job,omitempty"`
	Stage   string  `json:"stage,omitempty"`
	Name    string  `json:"name,omitempty"`
	Machine int     `json:"machine"`
	Time    float64 `json:"time"`
	Seconds float64 `json:"seconds"`
}

// StageBlame is the per-stage blame row. Label is "job/stage" ("job" alone
// for job-level events), with a "#k" occurrence suffix on the job when the
// same job name runs more than once in the stream.
type StageBlame struct {
	Label   string             `json:"label"`
	Seconds map[string]float64 `json:"seconds"`
	Total   float64            `json:"total"`
	// first is the smallest event Seq that contributed, for chronological
	// ordering of the report rows.
	first int
}

// Report is the full analysis of one trace.
type Report struct {
	// Makespan is last job-end minus first job-begin, in virtual seconds.
	Makespan float64 `json:"makespan"`
	// Blame attributes the whole makespan: the values sum to Makespan
	// (within float tolerance; pinned by test).
	Blame map[string]float64 `json:"blame"`
	// Stages are the per-stage blame rows in chronological order.
	Stages []*StageBlame `json:"stages"`
	// Path is the critical path in chronological order.
	Path []PathStep `json:"path"`
	// MachineCompute is each machine's total task busy seconds across the
	// whole stream (not just the path), for machine-level diffing.
	MachineCompute []float64 `json:"machine_compute"`
	// Links is the per-link / per-bisection-level utilization report; nil
	// when the trace carries no topology header.
	Links *LinkReport `json:"links,omitempty"`
}

// Analyze validates the stream's causal envelope, walks the critical path
// and builds the full report. topo may be nil (no link report then).
func Analyze(events []trace.Event, topo *cluster.Topology) (*Report, error) {
	if err := trace.CheckEvents(events, trace.MaxMachines); err != nil {
		return nil, err
	}
	last := -1
	root := -1
	for i := range events {
		if events[i].Kind == trace.KindJobEnd {
			last = i
		}
		if root < 0 && events[i].Kind == trace.KindJobBegin {
			root = i
		}
	}
	if last < 0 || root < 0 {
		return nil, fmt.Errorf("analyze: trace contains no completed job")
	}
	labels := stageLabels(events)
	ckpt := checkpointJobs(events)

	rep := &Report{
		Makespan: events[last].Time - events[root].Time,
		Blame:    make(map[string]float64, len(Categories)),
	}
	for _, c := range Categories {
		rep.Blame[c] = 0
	}
	rows := make(map[string]*StageBlame)
	add := func(label, cat string, secs float64, seq int) {
		if secs <= 0 {
			return
		}
		rep.Blame[cat] += secs
		row := rows[label]
		if row == nil {
			row = &StageBlame{Label: label, Seconds: make(map[string]float64), first: seq}
			rows[label] = row
		}
		if seq < row.first {
			row.first = seq
		}
		row.Seconds[cat] += secs
		row.Total += secs
	}

	// Backward walk: t is the frontier — everything in [t, makespan end] is
	// already attributed. Each step consumes the gap from the current
	// event's upper edge to t, then the event's own span pieces. Cause <
	// Seq strictly, so the walk terminates at the root job-begin.
	t := events[last].Time
	cur := last
	child := -1
	var rpath []PathStep
	for {
		ev := &events[cur]
		stepStart := t
		pieces := spanPieces(ev, ckpt[ev.Job])
		hi := ev.Time
		for _, p := range pieces {
			if p.hi > hi {
				hi = p.hi
			}
		}
		if hi < t {
			// The gap between this event and its effect: who was waited on?
			cat := gapCategory(ev, eventAt(events, child), ckpt)
			label := labels[cur]
			if child >= 0 && labels[child] != "" {
				label = labels[child]
			}
			add(label, cat, t-hi, ev.Seq)
			t = hi
		}
		for _, p := range pieces {
			phi := p.hi
			if phi > t {
				phi = t
			}
			if p.lo < phi {
				add(labels[cur], p.cat, phi-p.lo, ev.Seq)
			}
			if p.lo < t {
				t = p.lo
			}
		}
		rpath = append(rpath, PathStep{
			Seq: ev.Seq, Kind: ev.Kind.String(), Job: ev.Job, Stage: ev.Stage,
			Name: ev.Name, Machine: ev.Machine, Time: ev.Time, Seconds: stepStart - t,
		})
		if ev.Cause == trace.None {
			break
		}
		child = cur
		cur = ev.Cause
	}
	// Safety net: a frontier left above the trace start (a malformed chain
	// would cause it; engine streams never do) is barrier skew, keeping the
	// 100%-attribution invariant unconditional.
	if t > events[root].Time {
		add(labels[root], CatBarrier, t-events[root].Time, events[root].Seq)
	}

	// Path was collected backward; report it forward.
	rep.Path = make([]PathStep, len(rpath))
	for i := range rpath {
		rep.Path[len(rpath)-1-i] = rpath[i]
	}
	rep.Stages = sortRows(rows)
	rep.MachineCompute = machineCompute(events)
	if topo != nil {
		rep.Links = linkReport(events, topo, events[root].Time, events[last].Time)
	}
	return rep, nil
}

func eventAt(events []trace.Event, i int) *trace.Event {
	if i < 0 {
		return nil
	}
	return &events[i]
}

// piece is one attributable sub-interval of an event's span.
type piece struct {
	lo, hi float64
	cat    string
}

// spanPieces returns an event's attributable intervals, highest first.
// Instant events (markers, failures, retries) own no interval — the walk
// attributes the gaps around them instead.
func spanPieces(ev *trace.Event, inCkptJob bool) []piece {
	reclass := func(cat string) string {
		if inCkptJob {
			return CatCheckpoint
		}
		return cat
	}
	switch ev.Kind {
	case trace.KindTaskEnd:
		return []piece{{lo: ev.Start, hi: ev.End, cat: reclass(CatCompute)}}
	case trace.KindTransfer:
		stall := CatNIC
		if ev.Incast {
			stall = CatIncast
		}
		return []piece{
			{lo: ev.Start, hi: ev.End, cat: reclass(CatNIC)},
			{lo: ev.Time, hi: ev.Start, cat: reclass(stall)},
		}
	case trace.KindTransferDrop:
		// The wasted NIC hold until the sender's timeout is fault cost; the
		// queueing before the doomed attempt is ordinary serialization.
		return []piece{
			{lo: ev.Start, hi: ev.End, cat: CatRetry},
			{lo: ev.Time, hi: ev.Start, cat: reclass(CatNIC)},
		}
	case trace.KindPartitionMigrate:
		// A live migration's wire time and its NIC queueing are both
		// elasticity cost — the drain, not the application, moved the bytes.
		return []piece{
			{lo: ev.Start, hi: ev.End, cat: CatMigration},
			{lo: ev.Time, hi: ev.Start, cat: CatMigration},
		}
	default:
		return nil
	}
}

// gapCategory classifies the wait between parent's upper edge and its
// effect child. Fault machinery (heartbeat detection, backoff timers,
// exogenous failures) is retry-backoff; checkpoint-job internals are
// checkpoint I/O; everything else is waiting on an off-path straggler at a
// barrier.
func gapCategory(parent, child *trace.Event, ckpt map[string]bool) string {
	if parent.Kind == trace.KindFailure || parent.Kind == trace.KindTransferDrop {
		return CatRetry
	}
	if parent.Kind == trace.KindMachineDrain || parent.Kind == trace.KindMachineJoin ||
		parent.Kind == trace.KindPartitionMigrate {
		return CatMigration
	}
	if child != nil {
		switch child.Kind {
		case trace.KindFailure, trace.KindRetry, trace.KindTransferRetry:
			return CatRetry
		case trace.KindMachineJoin, trace.KindMachineDrain, trace.KindPartitionMigrate:
			// The wait ended with an elastic membership event: the path was
			// held by the drain/join machinery, not application work.
			return CatMigration
		case trace.KindJobQueued, trace.KindJobAdmitted, trace.KindJobPreempted,
			trace.KindJobResumed, trace.KindJobRejected:
			// The wait ended with a scheduler decision: the job was queued
			// (submit → admit) or suspended (preempt → resume) meanwhile.
			return CatQueued
		}
	}
	switch parent.Kind {
	case trace.KindJobQueued, trace.KindJobAdmitted, trace.KindJobPreempted,
		trace.KindJobResumed:
		// The wait started at a scheduler event: the job sat in the queue
		// (or preempted) until its effect fired.
		return CatQueued
	}
	if ckpt[parent.Job] {
		return CatCheckpoint
	}
	return CatBarrier
}

// checkpointJobs collects the engine-job names the checkpoint/restore marks
// reference ("ckpt-002", "restore-002"): path time inside them is
// checkpoint I/O, not application work.
func checkpointJobs(events []trace.Event) map[string]bool {
	out := make(map[string]bool)
	for i := range events {
		switch events[i].Kind {
		case trace.KindCheckpoint, trace.KindRestore:
			out[events[i].Job] = true
		}
	}
	return out
}

// stageLabels computes each event's enclosing "job/stage" row label on
// top of the shared job scoping of trace.JobLabels ("mapreduce#2/map").
func stageLabels(events []trace.Event) []string {
	labels := trace.JobLabels(events)
	for i := range events {
		if labels[i] != "" && events[i].Stage != "" {
			labels[i] += "/" + events[i].Stage
		}
	}
	return labels
}

// sortRows orders the blame rows chronologically (by first contributing
// event, Label as the tie-break). The previous insertion sort was stable,
// so rows sharing a first-Seq kept map iteration order — the explicit
// tie-break makes the order a pure function of the rows themselves.
func sortRows(rows map[string]*StageBlame) []*StageBlame {
	out := make([]*StageBlame, 0, len(rows))
	for _, r := range rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].first != out[j].first {
			return out[i].first < out[j].first
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// machineCompute sums task busy seconds per machine over the whole stream
// (task-ends without a machine are skipped). Machine ids are bounded by
// trace.CheckEvents.
func machineCompute(events []trace.Event) []float64 {
	out := []float64{}
	for i := range events {
		if ev := &events[i]; ev.Kind == trace.KindTaskEnd && ev.Machine >= 0 {
			for len(out) <= ev.Machine {
				out = append(out, 0)
			}
			out[ev.Machine] += ev.End - ev.Start
		}
	}
	return out
}
