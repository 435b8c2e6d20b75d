package trace

import (
	"fmt"
	"sort"
)

// Breakdown is the hierarchical metrics view of a trace: per job, per
// stage, per machine. It is computed from the event stream alone
// (Summarize), so it is consistent with any exported trace by
// construction, and — like the stream — identical for every worker count.
type Breakdown struct {
	Jobs []*JobBreakdown
	// Checkpoints / Restores count driver-level checkpoint commits and
	// rollback restores observed in the stream (they carry no machine:
	// their I/O cost appears as ordinary checkpoint/restore jobs).
	Checkpoints int
	Restores    int
	// CheckpointJobs / RestoreJobs record which job each commit / restore
	// belongs to ("ckpt-002", "restore-002", …), in stream order, so a
	// rollback replay is attributable to its iteration instead of being an
	// anonymous global count.
	CheckpointJobs []string
	RestoreJobs    []string
}

// JobBreakdown aggregates one engine job.
type JobBreakdown struct {
	Name       string
	Begin, End float64
	Stages     []*StageBreakdown
}

// StageBreakdown aggregates one stage of a job.
type StageBreakdown struct {
	Name       string
	Begin, End float64
	// Machines holds one entry per machine that did anything in the
	// stage, sorted by machine ID.
	Machines []*MachineBreakdown
}

// MachineBreakdown is the per-machine accounting within one stage (or an
// aggregate across stages; then Machine may be None).
type MachineBreakdown struct {
	Machine int
	// ComputeSeconds is task busy time (compute + local disk) on the
	// machine: the sum of task Start..End intervals.
	ComputeSeconds float64
	// EgressBusySeconds / IngressBusySeconds are the times the machine's
	// NICs were occupied by serialized transfers. Because every transfer
	// occupies exactly one egress and one ingress NIC for its duration,
	// the cluster-wide sums of the two are equal.
	EgressBusySeconds  float64
	IngressBusySeconds float64
	// EgressBytes / IngressBytes are the bytes sent / received. Each sums
	// to the engine's Metrics.NetworkBytes across all machines.
	EgressBytes  int64
	IngressBytes int64
	// BytesToPart attributes sent bytes to the destination partition.
	BytesToPart map[int]int64
	// StallSeconds is the total NIC queueing delay of transfers this
	// machine sent; IncastStallSeconds is the share of inbound transfers'
	// delay where this machine's ingress NIC was the binding constraint
	// (the incast signature: many senders converging on one receiver).
	StallSeconds       float64
	IncastStallSeconds float64
	// TasksRun / TasksLost / Transfers / Retries count completions,
	// failure-killed tasks, sent transfers, and re-dispatches.
	TasksRun  int
	TasksLost int
	Transfers int
	Retries   int
	// TransferDrops / TransferRetries count transfers this machine sent
	// that a transient link fault failed, and their backoff re-issues.
	TransferDrops   int
	TransferRetries int
	// Speculations counts backup task copies launched on this machine by
	// the job manager's straggler rule.
	Speculations int
	// DropStallSeconds is NIC time wasted by dropped transfers: both NICs
	// were held from the attempt's start until the sender's timeout.
	DropStallSeconds float64
	// Failed reports the machine died during the stage.
	Failed bool
}

// add folds other into m (for cross-stage/cross-job aggregation).
func (m *MachineBreakdown) add(other *MachineBreakdown) {
	m.ComputeSeconds += other.ComputeSeconds
	m.EgressBusySeconds += other.EgressBusySeconds
	m.IngressBusySeconds += other.IngressBusySeconds
	m.EgressBytes += other.EgressBytes
	m.IngressBytes += other.IngressBytes
	for p, b := range other.BytesToPart {
		if m.BytesToPart == nil {
			m.BytesToPart = make(map[int]int64)
		}
		m.BytesToPart[p] += b
	}
	m.StallSeconds += other.StallSeconds
	m.IncastStallSeconds += other.IncastStallSeconds
	m.TasksRun += other.TasksRun
	m.TasksLost += other.TasksLost
	m.Transfers += other.Transfers
	m.Retries += other.Retries
	m.TransferDrops += other.TransferDrops
	m.TransferRetries += other.TransferRetries
	m.Speculations += other.Speculations
	m.DropStallSeconds += other.DropStallSeconds
	m.Failed = m.Failed || other.Failed
}

// machine finds or creates the stage's breakdown row for machine id.
func (sb *StageBreakdown) machine(id int) *MachineBreakdown {
	for _, mb := range sb.Machines {
		if mb.Machine == id {
			return mb
		}
	}
	mb := &MachineBreakdown{Machine: id}
	sb.Machines = append(sb.Machines, mb)
	return mb
}

// JobLabels names the job occurrence each event belongs to. Scope comes
// from the event's own Job field, never from the job that began last: a
// multi-tenant stream interleaves the events of concurrent jobs. A
// job-begin opens a new occurrence of its name, and later events naming the
// job belong to that occurrence. A name that begins more than once is
// labelled "name#k" for its k-th occurrence (repeated `mapreduce`
// submissions stay distinguishable); events naming no job get "", and
// events preceding their job's first begin get the bare name.
func JobLabels(events []Event) []string {
	begins := make(map[string]int)
	for i := range events {
		if events[i].Kind == KindJobBegin {
			begins[events[i].Job]++
		}
	}
	labels := make([]string, len(events))
	seen := make(map[string]int)
	alias := make(map[string]string)
	for i := range events {
		ev := &events[i]
		if ev.Kind == KindJobBegin {
			seen[ev.Job]++
			if begins[ev.Job] > 1 {
				alias[ev.Job] = fmt.Sprintf("%s#%d", ev.Job, seen[ev.Job])
			} else {
				alias[ev.Job] = ev.Job
			}
		}
		if label, ok := alias[ev.Job]; ok {
			labels[i] = label
		} else {
			labels[i] = ev.Job
		}
	}
	return labels
}

// Summarize folds an event stream into the job → stage → machine hierarchy.
// Each event is filed under its own job occurrence (JobLabels) and, within
// it, the latest occurrence of its own stage. Events of a job or stage that
// never began are gathered under a synthetic "(untracked)" job or stage.
func Summarize(events []Event) *Breakdown {
	b := &Breakdown{}
	labels := JobLabels(events)
	type stageKey struct {
		job   *JobBreakdown
		stage string
	}
	jobs := make(map[string]*JobBreakdown)
	stages := make(map[stageKey]*StageBreakdown)
	var untracked *JobBreakdown
	jobOf := func(i int) *JobBreakdown {
		if jb := jobs[labels[i]]; jb != nil {
			return jb
		}
		if untracked == nil {
			untracked = &JobBreakdown{Name: "(untracked)"}
			b.Jobs = append(b.Jobs, untracked)
		}
		return untracked
	}
	stageOf := func(i int) *StageBreakdown {
		jb := jobOf(i)
		if sb := stages[stageKey{jb, events[i].Stage}]; sb != nil {
			return sb
		}
		key := stageKey{jb, "(untracked)"}
		sb := stages[key]
		if sb == nil {
			sb = &StageBreakdown{Name: "(untracked)"}
			jb.Stages = append(jb.Stages, sb)
			stages[key] = sb
		}
		return sb
	}
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindJobBegin:
			jb := &JobBreakdown{Name: ev.Job, Begin: ev.Time, End: ev.Time}
			jobs[labels[i]] = jb
			b.Jobs = append(b.Jobs, jb)
		case KindJobEnd:
			if jb := jobs[labels[i]]; jb != nil {
				jb.End = ev.Time
			}
		case KindStageBegin:
			jb := jobOf(i)
			sb := &StageBreakdown{Name: ev.Stage, Begin: ev.Time, End: ev.Time}
			jb.Stages = append(jb.Stages, sb)
			stages[stageKey{jb, ev.Stage}] = sb
		case KindStageEnd:
			jb := jobs[labels[i]]
			if jb == nil {
				jb = untracked
			}
			if sb := stages[stageKey{jb, ev.Stage}]; sb != nil {
				sb.End = ev.Time
			}
		case KindTaskEnd:
			mb := stageOf(i).machine(ev.Machine)
			mb.ComputeSeconds += ev.End - ev.Start
			mb.TasksRun++
		case KindTaskLost:
			stageOf(i).machine(ev.Machine).TasksLost++
		case KindTransfer, KindPartitionMigrate:
			// Migration bytes are counted like transfers: they occupy the
			// same NICs and sum into Metrics.NetworkBytes, so the
			// egress/ingress reconciliation invariant holds on elastic runs.
			sb := stageOf(i)
			src := sb.machine(ev.Machine)
			dst := sb.machine(ev.Dst)
			dur := ev.End - ev.Start
			src.EgressBusySeconds += dur
			src.EgressBytes += ev.Bytes
			src.Transfers++
			src.StallSeconds += ev.Stall
			if src.BytesToPart == nil {
				src.BytesToPart = make(map[int]int64)
			}
			src.BytesToPart[ev.Part] += ev.Bytes
			dst.IngressBusySeconds += dur
			dst.IngressBytes += ev.Bytes
			if ev.Incast {
				dst.IncastStallSeconds += ev.Stall
			}
		case KindFailure:
			stageOf(i).machine(ev.Machine).Failed = true
		case KindRetry:
			stageOf(i).machine(ev.Machine).Retries++
		case KindTransferDrop:
			mb := stageOf(i).machine(ev.Machine)
			mb.TransferDrops++
			mb.DropStallSeconds += ev.End - ev.Start
		case KindTransferRetry:
			stageOf(i).machine(ev.Machine).TransferRetries++
		case KindSpeculate:
			stageOf(i).machine(ev.Machine).Speculations++
		case KindCheckpoint:
			b.Checkpoints++
			b.CheckpointJobs = append(b.CheckpointJobs, ev.Job)
		case KindRestore:
			b.Restores++
			b.RestoreJobs = append(b.RestoreJobs, ev.Job)
		}
	}
	for _, jb := range b.Jobs {
		for _, sb := range jb.Stages {
			sort.Slice(sb.Machines, func(i, j int) bool {
				return sb.Machines[i].Machine < sb.Machines[j].Machine
			})
		}
	}
	return b
}

// PerMachine aggregates the breakdown across every job and stage into one
// row per machine, sorted by machine ID.
func (b *Breakdown) PerMachine() []*MachineBreakdown {
	byID := make(map[int]*MachineBreakdown)
	for _, jb := range b.Jobs {
		for _, sb := range jb.Stages {
			for _, mb := range sb.Machines {
				agg, ok := byID[mb.Machine]
				if !ok {
					agg = &MachineBreakdown{Machine: mb.Machine}
					byID[mb.Machine] = agg
				}
				agg.add(mb)
			}
		}
	}
	out := make([]*MachineBreakdown, 0, len(byID))
	for _, mb := range byID {
		out = append(out, mb)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// Totals aggregates the whole trace into one row (Machine == None).
func (b *Breakdown) Totals() MachineBreakdown {
	t := MachineBreakdown{Machine: None}
	for _, mb := range b.PerMachine() {
		t.add(mb)
	}
	return t
}
