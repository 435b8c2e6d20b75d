package engine

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Failure schedules the death of a machine at a virtual time, for the
// fault-tolerance experiments (Figure 10).
type Failure struct {
	Machine cluster.MachineID
	At      float64
}

// Config configures a Runner.
type Config struct {
	Topo *cluster.Topology
	// Replicas provides failover targets; required when Failures is
	// non-empty.
	Replicas *storage.Replicas
	// Failures to inject, in any order.
	Failures []Failure
	// HeartbeatInterval is the failure-detection latency of the job
	// manager (Appendix B). Defaults to 1s.
	HeartbeatInterval float64
	// SlotsPerMachine is how many tasks a slave runs concurrently (the
	// paper's slaves are quad-core Xeons; the job manager "dispatches one
	// more task to a slave node when the slave node finishes a task").
	// Defaults to 1.
	SlotsPerMachine int
	// Workers sizes the pool that executes the real Go compute of tasks
	// (Transfer fan-out, Combine folds, Map/Reduce bodies) on host cores.
	// Zero or negative selects GOMAXPROCS; 1 forces serial execution.
	// Results are bit-identical for every value — see Pool.
	Workers int
	// Trace receives one structured event per task start/finish, NIC
	// transfer, stage barrier, failure and retry. Nil disables tracing at
	// zero cost. Every event is emitted from the serial event loop, so the
	// stream is identical for every Workers value (see docs/METRICS.md).
	Trace *trace.Recorder
	// Faults injects transient faults — degraded links, dropped
	// transfers, machine slowdowns — replayed deterministically from the
	// serial event loop. Nil means no transient faults, at zero cost.
	Faults *fault.Schedule
	// Retry governs dropped-transfer detection and exponential backoff.
	// The zero value selects the defaults (1s timeout, 0.25s backoff
	// doubling to an 8s cap, unlimited attempts).
	Retry fault.RetryPolicy
	// Speculation enables MapReduce-style backup tasks for stragglers.
	// Requires Replicas (backups run on replica holders).
	Speculation fault.SpeculationPolicy
	// PartBytes is the resident state volume of each partition, indexed by
	// PartID: the bytes a live migration must copy when the partition's
	// home machine drains. Missing or short means zero-cost (instant)
	// migrations. Only consulted when Faults contains drains.
	PartBytes []int64
}

// Runner executes jobs on the simulated cluster. A Runner carries its
// virtual clock and metrics across jobs, so a multi-iteration application
// can run each iteration as a separate job and read cumulative metrics.
type Runner struct {
	cfg     Config
	pool    *Pool
	clock   float64
	metrics Metrics
	dead    map[cluster.MachineID]bool
	// tr receives structured trace events; nil means tracing is disabled
	// and every emission site reduces to a nil check.
	tr *trace.Recorder
	// Causal-DAG threading (docs/METRICS.md): lastJobEnd is the Seq of the
	// previous job's end (the cause of the next job's begin), failSeq the
	// Seq of each dead machine's failure event (the cause of everything that
	// machine's death enabled), lastFailSeq the most recent failure, and
	// recoveryPending marks that the next job is a rollback reaction whose
	// begin should be caused by that failure instead of the previous job.
	lastJobEnd      int
	failSeq         map[cluster.MachineID]int
	lastFailSeq     int
	recoveryPending bool
	// faults is the transient-fault schedule (nil = fault-free: every
	// query is a nil check), retry and spec the defaulted policies.
	faults *fault.Schedule
	retry  fault.RetryPolicy
	spec   fault.SpeculationPolicy
	// Elastic membership (see elastic.go). dormant marks provisioned
	// machines whose join has not fired; draining marks machines mid-drain;
	// retired marks cleanly decommissioned machines. home overlays the
	// replica primary as a partition's current location after migration —
	// the shared Replicas is never mutated, so runners at different worker
	// counts stay independent. nicRate caps a machine's NIC line rate
	// (0 = topology rate); drainState tracks each active drain's
	// outstanding migrations.
	dormant    map[cluster.MachineID]bool
	draining   map[cluster.MachineID]bool
	retired    map[cluster.MachineID]bool
	home       map[partition.PartID]cluster.MachineID
	nicRate    []float64
	drainState map[cluster.MachineID]*drainState
	// The shared cluster every open stage run executes on: per-machine
	// task queues (FIFO across stage runs, in enqueue order) and running
	// counts — a machine accepts up to Config.SlotsPerMachine concurrent
	// tasks — and the NIC free-times. A transfer occupies the sender's
	// egress and the receiver's ingress for bytes/bandwidth(src,dst)
	// seconds, so all-to-all bursts serialize at the NICs (incast), within
	// one job and across concurrent ones.
	queues      [][]queued
	running     []int
	egressFree  []float64
	ingressFree []float64
	// evq is the one simulation event queue and seq its global tie-break
	// counter; open lists the open stage runs in open order, calls counts
	// the pending At callbacks, and err aborts the loop (e.g. a transfer
	// exhausted its retries).
	evq   eventQueue
	seq   int
	open  []*stageRun
	calls int
	err   error
}

// New creates a Runner.
func New(cfg Config) *Runner {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 1.0
	}
	if cfg.SlotsPerMachine <= 0 {
		cfg.SlotsPerMachine = 1
	}
	nm := cfg.Topo.NumMachines()
	r := &Runner{
		cfg: cfg, pool: NewPool(cfg.Workers), tr: cfg.Trace,
		dead:        make(map[cluster.MachineID]bool),
		faults:      cfg.Faults,
		retry:       cfg.Retry.WithDefaults(),
		spec:        cfg.Speculation.WithDefaults(),
		lastJobEnd:  trace.None,
		failSeq:     make(map[cluster.MachineID]int),
		lastFailSeq: trace.None,
		dormant:     make(map[cluster.MachineID]bool),
		draining:    make(map[cluster.MachineID]bool),
		retired:     make(map[cluster.MachineID]bool),
		home:        make(map[partition.PartID]cluster.MachineID),
		nicRate:     make([]float64, nm),
		drainState:  make(map[cluster.MachineID]*drainState),
		queues:      make([][]queued, nm),
		running:     make([]int, nm),
		egressFree:  make([]float64, nm),
		ingressFree: make([]float64, nm),
	}
	// The membership schedule is armed once, up front — failures in At
	// order, then joins and drains in (At, Machine) order — and fires as
	// its events pop, anchored to the oldest open stage run.
	failures := append([]Failure(nil), cfg.Failures...)
	sortFailures(failures)
	for _, f := range failures {
		r.push(event{at: f.At, kind: evFailure, failMachine: f.Machine})
	}
	if cfg.Faults != nil {
		// Join targets start dormant; their NIC rate cap is in force from
		// the moment they go live.
		for _, j := range cfg.Faults.SortedJoins() {
			if int(j.Machine) >= 0 && int(j.Machine) < nm {
				r.dormant[j.Machine] = true
				r.nicRate[j.Machine] = j.NICs
				r.push(event{at: j.At, kind: evJoin, failMachine: j.Machine})
			}
		}
		for _, d := range cfg.Faults.SortedDrains() {
			r.push(event{at: d.At, kind: evDrain, failMachine: d.Machine, deadline: d.Deadline})
		}
	}
	return r
}

// Pool returns the worker pool that executes task compute bodies.
func (r *Runner) Pool() *Pool { return r.pool }

// Trace returns the runner's trace recorder (nil when tracing is off).
func (r *Runner) Trace() *trace.Recorder { return r.tr }

// Workers reports the pool size the runner executes compute with.
func (r *Runner) Workers() int { return r.pool.Workers() }

func sortFailures(fs []Failure) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].At < fs[j-1].At; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// Metrics returns the cumulative metrics of all jobs run so far.
func (r *Runner) Metrics() Metrics {
	m := r.metrics
	m.ResponseSeconds = r.clock
	return m
}

// Clock returns the current virtual time.
func (r *Runner) Clock() float64 { return r.clock }

// NumMachines reports the size of the underlying cluster.
func (r *Runner) NumMachines() int { return r.cfg.Topo.NumMachines() }

// IsDead reports whether a machine has failed so far, for membership
// tracking by the job scheduler (§3).
func (r *Runner) IsDead(m cluster.MachineID) bool { return r.dead[m] }

// Deaths reports how many machines have died so far. Multi-iteration
// drivers use the delta across an iteration to detect that state stored on
// a now-dead machine was lost and a checkpoint rollback is needed.
func (r *Runner) Deaths() int { return len(r.dead) }

// NoteCheckpoint records a committed iteration checkpoint on the runner's
// metrics and trace stream. The checkpoint's I/O cost is charged by the
// checkpoint job itself; this marks the commit point.
func (r *Runner) NoteCheckpoint(job string, bytes int64) {
	r.metrics.Checkpoints++
	r.tr.Emit(trace.Event{Kind: trace.KindCheckpoint, Job: job, Cause: r.lastJobEnd,
		Machine: trace.None, Dst: trace.None, Part: trace.None,
		Bytes: bytes, Time: r.clock})
}

// NoteRestore records a checkpoint rollback (a machine death invalidated
// iterations since the last checkpoint).
func (r *Runner) NoteRestore(job string, bytes int64) {
	r.metrics.Restores++
	r.tr.Emit(trace.Event{Kind: trace.KindRestore, Job: job, Cause: r.lastJobEnd,
		Machine: trace.None, Dst: trace.None, Part: trace.None,
		Bytes: bytes, Time: r.clock})
}

// MarkNextJobRecovery declares that the next Run is a rollback reaction to
// the most recent machine failure (a restore job): its job-begin event is
// caused by that failure instead of the previous job's end, so the causal
// DAG shows the failure — not normal job chaining — driving the replay.
func (r *Runner) MarkNextJobRecovery() { r.recoveryPending = true }

// ValidateFailures rejects malformed failure plans at build time instead of
// letting them panic or hang mid-run: negative times, unknown or duplicate
// machines, failures without replicas to fail over to, and kill sets that
// destroy every replica of some partition.
func ValidateFailures(fs []Failure, topo *cluster.Topology, reps *storage.Replicas) error {
	if len(fs) == 0 {
		return nil
	}
	killed := make(map[cluster.MachineID]bool, len(fs))
	for i, f := range fs {
		if f.At < 0 {
			return fmt.Errorf("engine: failure %d kills machine %d at negative time %g", i, f.Machine, f.At)
		}
		if int(f.Machine) < 0 || int(f.Machine) >= topo.NumMachines() {
			return fmt.Errorf("engine: failure %d kills machine %d outside [0,%d)", i, f.Machine, topo.NumMachines())
		}
		if killed[f.Machine] {
			return fmt.Errorf("engine: duplicate failure for machine %d", f.Machine)
		}
		killed[f.Machine] = true
	}
	if len(killed) >= topo.NumMachines() {
		return fmt.Errorf("engine: failure plan kills all %d machines", topo.NumMachines())
	}
	if reps == nil {
		return fmt.Errorf("engine: %d failure(s) configured but no replicas to fail over to", len(fs))
	}
	for p, ms := range reps.Machines {
		alive := false
		for _, m := range ms {
			if !killed[m] {
				alive = true
				break
			}
		}
		if !alive {
			return fmt.Errorf("engine: failure plan kills every replica of partition %d (machines %v)", p, ms)
		}
	}
	return nil
}

// Topology exposes the simulated cluster the runner executes on.
func (r *Runner) Topology() *cluster.Topology { return r.cfg.Topo }

// pendingTransfer is the retry state machine of one logical transfer: the
// same record is re-dispatched until an attempt succeeds, carrying the
// attempt count that drives the exponential backoff.
type pendingTransfer struct {
	src, dst cluster.MachineID
	bytes    int64
	part     partition.PartID
	attempt  int
	// to is the receiving task while its placement is still open (outputs
	// toward the next stage): data follows the task, so a retry goes to
	// wherever the engine would place it by then.
	to *Task
	// dstName is the destination task's name and cause the Seq of the event
	// that enabled the current attempt (the producing task's end, a recovery
	// retry, or the transfer-retry after a drop's backoff) — both carried
	// onto the emitted transfer event for the causal DAG.
	dstName string
	cause   int
	// migrate marks a live partition migration: a successful attempt emits
	// KindPartitionMigrate instead of KindTransfer and rehomes the
	// partition on arrival. part is the migrating partition itself.
	migrate bool
}

// runAttempt is one currently-executing copy of a task, registered when the
// attempt starts and dropped when it completes or its machine dies. The
// registry replaces scans of the event queue: the straggler check and the
// failure handler read it directly, in attempt-start order.
type runAttempt struct {
	task    *Task
	machine cluster.MachineID
	dur     float64
}

// queued is one task waiting in a machine's shared queue, tagged with the
// stage run it belongs to.
type queued struct {
	sr *stageRun
	t  *Task
}

// Exec is one job executing on the runner's shared event loop. Its stages
// open one at a time: the first when the owner calls Next, each later one
// when the owner's barrier hook calls Next again — Run does so at once, the
// job service may first hand the cluster to another job. The hook runs
// inside the loop at every stage barrier, after the stage-end (and, for the
// last stage, the job-end) event.
type Exec struct {
	r       *Runner
	job     *Job
	label   string
	tenant  string
	acct    *Metrics
	barrier func(*Exec)
	stage   int       // index of the next stage to open
	prev    *stageRun // the last closed stage, for Combine-input recovery
	endSeq  int
	busy    float64
}

// NewExec prepares job for execution. label names it on trace events and
// tenant stamps them; acct accumulates the work its stages do; barrier is
// the owner's barrier hook.
func (r *Runner) NewExec(job *Job, label, tenant string, acct *Metrics, barrier func(*Exec)) *Exec {
	return &Exec{r: r, job: job, label: label, tenant: tenant, acct: acct, barrier: barrier, endSeq: trace.None}
}

// Done reports whether every stage of the job has run.
func (x *Exec) Done() bool { return x.stage == len(x.job.Stages) }

// EndSeq is the Seq of the job's last barrier event: the last stage-end, or
// the job-end once Done.
func (x *Exec) EndSeq() int { return x.endSeq }

// Busy is the machine-seconds the last closed stage delivered.
func (x *Exec) Busy() float64 { return x.busy }

// Next opens the job's next stage at the current virtual time, its
// stage-begin caused by cause; the first call also emits the job-begin.
func (x *Exec) Next(cause int) {
	r := x.r
	if x.stage == 0 {
		cause = r.tr.Emit(trace.Event{Kind: trace.KindJobBegin, Job: x.label, Tenant: x.tenant,
			Cause: cause, Machine: trace.None, Dst: trace.None, Part: trace.None, Time: r.clock})
	}
	if x.Done() {
		x.finish(cause)
		x.barrier(x)
		return
	}
	r.openStage(x, cause)
}

func (x *Exec) finish(cause int) {
	x.endSeq = x.r.tr.Emit(trace.Event{Kind: trace.KindJobEnd, Job: x.label, Tenant: x.tenant,
		Cause: cause, Machine: trace.None, Dst: trace.None, Part: trace.None, Time: x.r.clock})
}

// stageRun holds the mutable state of one stage execution. All per-task
// state is indexed by the task's position in the stage (Task.idx, stamped
// at stage start), so the event loop touches only flat slices.
type stageRun struct {
	r        *Runner
	exec     *Exec
	stage    *Stage
	stageIdx int
	// prev is the job's previous stage run (nil for the first), whose task
	// machines a recovered Combine task re-fetches its inputs from.
	prev      *stageRun
	remaining int
	inflight  int
	// attempts registers the currently running task copies across all
	// machines, in attempt-start order.
	attempts []runAttempt
	// taskMachine records where each task actually ran (-1 = nowhere yet),
	// for input re-transfer on recovery.
	taskMachine []cluster.MachineID
	// committed marks tasks whose first completed copy already committed
	// its results; later copies (speculative backups, stale completions)
	// burn machine time but change nothing — first completion wins, and
	// because commitment happens in the serial event loop the committed
	// results are identical in task order for every worker count.
	committed []bool
	// copies counts the currently running copies of each task (original
	// plus speculative backups).
	copies []int
	// speculated marks tasks that already received a backup copy, so the
	// straggler rule fires at most once per task.
	speculated []bool
	// doneDurs collects committed task durations for the median the
	// speculation policy compares stragglers against.
	doneDurs []float64
	// busy sums the machine-seconds of the stage's completed attempts.
	busy float64
	// The barrier: end is the latest time one of the stage's events popped,
	// endCause the Seq of the event that last advanced it (the stage-end's
	// cause on the critical path); beginSeq is the stage-begin event.
	end      float64
	endCause int
	beginSeq int
	closed   bool
}

// Run executes the job, advancing the runner's clock, and returns the
// metrics of this job alone.
func (r *Runner) Run(job *Job) (Metrics, error) {
	if err := job.Validate(r.cfg.Topo); err != nil {
		return Metrics{}, err
	}
	if len(r.cfg.Failures) > 0 && r.cfg.Replicas == nil {
		return Metrics{}, fmt.Errorf("engine: failures configured without replicas")
	}
	before := r.metrics
	start := r.clock
	// A job begins because the previous one ended — except a rollback
	// replay, which begins because a machine died.
	jobCause := r.lastJobEnd
	if r.recoveryPending && r.lastFailSeq != trace.None {
		jobCause = r.lastFailSeq
	}
	r.recoveryPending = false
	x := r.NewExec(job, job.Name, "", &r.metrics, func(x *Exec) {
		if !x.Done() {
			x.Next(x.EndSeq())
		}
	})
	x.Next(jobCause)
	if err := r.Loop(); err != nil {
		return Metrics{}, err
	}
	r.lastJobEnd = x.EndSeq()
	m := r.metrics
	m.ResponseSeconds = r.clock - start
	m.MachineSeconds -= before.MachineSeconds
	m.NetworkBytes -= before.NetworkBytes
	m.DiskBytes -= before.DiskBytes
	m.TasksRun -= before.TasksRun
	m.Recoveries -= before.Recoveries
	m.TransferDrops -= before.TransferDrops
	m.TransferRetries -= before.TransferRetries
	m.Speculations -= before.Speculations
	m.Checkpoints -= before.Checkpoints
	m.Restores -= before.Restores
	m.Joins -= before.Joins
	m.Drains -= before.Drains
	m.Migrations -= before.Migrations
	m.MigrationBytes -= before.MigrationBytes
	return m, nil
}

// At schedules fn to run inside the loop at virtual time t (not before the
// current clock). At equal times callbacks run before every other event, in
// the order they were scheduled.
func (r *Runner) At(t float64, fn func()) {
	r.calls++
	r.push(event{at: t, kind: evCall, call: fn})
}

// Loop runs the shared event loop until no stage run is open and no At
// callback is pending. Events left queued — membership events beyond the
// last barrier, stale events of closed stage runs — stay for the next call.
func (r *Runner) Loop() error {
	for r.err == nil && (len(r.open) > 0 || r.calls > 0) {
		if r.evq.Len() == 0 {
			sr := r.open[0]
			return fmt.Errorf("engine: stage %q deadlocked with %d tasks and %d transfers pending", sr.stage.Name, sr.remaining, sr.inflight)
		}
		e := r.evq.pop()
		r.step(e)
		r.evq.recycle(e)
	}
	return r.err
}

// step handles one popped event. Stage events advance their own stage run's
// barrier; membership events (failures, joins, drains) belong to the oldest
// open stage run — the only one in a single-job run. Events of a closed
// stage run (stale completions on dead machines, losing speculative copies,
// moot drain deadlines) are dropped without effect.
func (r *Runner) step(e *event) {
	if e.kind == evCall {
		r.calls--
		r.clock = e.at
		e.call()
		return
	}
	sr := e.sr
	if sr == nil && len(r.open) > 0 {
		sr = r.open[0]
	} else if sr != nil && sr.closed {
		return
	}
	r.clock = e.at
	seq := trace.None
	switch e.kind {
	case evTaskDone:
		seq = sr.onTaskDone(e)
	case evTransferDone:
		sr.inflight--
		seq = e.traceSeq
		if e.transfer.migrate {
			r.onMigrateDone(e.transfer)
		}
	case evFailure:
		seq = r.failMachine(sr, e.failMachine, e.at, sr.anchorSeq())
	case evRecovery:
		seq = sr.onRecovery(e)
	case evTransferRetry:
		seq = sr.onTransferRetry(e)
	case evJoin:
		seq = r.onJoin(sr, e)
	case evDrain:
		seq = r.onDrain(sr, e)
	case evDrainDeadline:
		seq = r.onDrainDeadline(sr, e)
	}
	if r.err != nil || sr == nil {
		return
	}
	if e.at > sr.end {
		sr.end = e.at
		sr.endCause = seq
	}
	if sr.remaining == 0 && sr.inflight == 0 {
		r.closeStage(sr)
	}
}

// openStage places the exec's next stage on the cluster at the current
// clock and launches what fits in the free slots.
func (r *Runner) openStage(x *Exec, cause int) {
	stage := x.job.Stages[x.stage]
	nt := len(stage.Tasks)
	sr := &stageRun{
		r: r, exec: x, stage: stage, stageIdx: x.stage, prev: x.prev,
		taskMachine: make([]cluster.MachineID, nt),
		committed:   make([]bool, nt),
		copies:      make([]int, nt),
		speculated:  make([]bool, nt),
		remaining:   nt,
		end:         r.clock,
	}
	// Enqueue tasks on their machines: a migrated partition's tasks follow
	// its new home, dead/draining/dormant/retired primaries fail over. Each
	// task is stamped with its stage-local index, the key of all per-task
	// state above.
	for i, t := range stage.Tasks {
		t.idx = i
		sr.taskMachine[i] = -1
		m, err := r.place(t)
		if err != nil {
			r.err = err
			return
		}
		r.queues[m] = append(r.queues[m], queued{sr: sr, t: t})
	}
	sr.beginSeq = sr.emit(trace.Event{Kind: trace.KindStageBegin, Cause: cause,
		Machine: trace.None, Dst: trace.None, Part: trace.None, Time: r.clock})
	// An empty (or instantaneous) stage's barrier is bound by its own begin.
	sr.endCause = sr.beginSeq
	r.open = append(r.open, sr)
	// Start machines in ID order for determinism. These launches are
	// enabled by the stage barrier opening.
	for i := range r.queues {
		r.startNext(cluster.MachineID(i), r.clock, sr.beginSeq)
	}
	if nt == 0 {
		r.closeStage(sr)
	}
}

// closeStage passes a stage run's barrier: it leaves the open set, the
// slots of its losing speculative copies still running are released (their
// completions are dropped as stale; queued backup copies are skipped when
// reached, every task being committed), the stage-end (and after the last
// stage the job-end) is emitted, and the owner's barrier hook runs.
func (r *Runner) closeStage(sr *stageRun) {
	sr.closed = true
	for i, o := range r.open {
		if o == sr {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
	for _, a := range sr.attempts {
		r.running[a.machine]--
	}
	endSeq := sr.emit(trace.Event{Kind: trace.KindStageEnd, Cause: sr.endCause,
		Machine: trace.None, Dst: trace.None, Part: trace.None, Time: sr.end})
	x := sr.exec
	x.stage++
	x.prev, sr.prev = sr, nil
	x.endSeq, x.busy = endSeq, sr.busy
	if x.Done() {
		x.finish(endSeq)
	}
	x.barrier(x)
}

// anchorSeq is the cause of a membership event anchored to this stage run:
// its stage-begin (None when no stage is open).
func (sr *stageRun) anchorSeq() int {
	if sr == nil {
		return trace.None
	}
	return sr.beginSeq
}

// emit stamps ev with the stage run's job, stage and tenant (nothing when
// sr is nil: a membership event with no stage open) and records it.
func (r *Runner) emitIn(sr *stageRun, ev trace.Event) int {
	if sr != nil {
		ev.Job, ev.Stage, ev.Tenant = sr.exec.label, sr.stage.Name, sr.exec.tenant
	}
	return r.tr.Emit(ev)
}

func (sr *stageRun) emit(ev trace.Event) int { return sr.r.emitIn(sr, ev) }

// emitTask emits a task-lifecycle trace event and returns its Seq (None when
// tracing is off, via the nil-safe Emit). Task-start and task-end events
// carry the task's disk volumes.
func (sr *stageRun) emitTask(kind trace.EventKind, t *Task, m cluster.MachineID, at, start, end float64, cause int) int {
	ev := trace.Event{Kind: kind, Name: t.Name, Cause: cause, Machine: int(m),
		Dst: trace.None, Part: int(t.Part), Time: at, Start: start, End: end}
	if kind == trace.KindTaskStart || kind == trace.KindTaskEnd {
		ev.DiskRead, ev.DiskWrite = t.DiskRead, t.DiskWrite
	}
	return sr.emit(ev)
}

// push enqueues a simulation event, copying it into a recycled record and
// stamping the deterministic tie-break sequence.
func (r *Runner) push(ev event) {
	e := r.evq.alloc()
	*e = ev
	e.seq = r.seq
	r.seq++
	r.evq.push(e)
}

// startNext launches queued tasks on machine m at time now until its slots
// are full or its queue drains. The queue is shared by every open stage
// run: a freed slot goes to the head of the queue, whichever job owns it.
// cause is the Seq of the event that enabled the launches.
func (r *Runner) startNext(m cluster.MachineID, now float64, cause int) {
	if r.dead[m] {
		return
	}
	for r.running[m] < r.cfg.SlotsPerMachine && len(r.queues[m]) > 0 {
		sr, t := r.queues[m][0].sr, r.queues[m][0].t
		r.queues[m] = r.queues[m][1:]
		if sr.committed[t.idx] {
			// A queued backup whose original already finished: drop it.
			continue
		}
		r.running[m]++
		sr.copies[t.idx]++
		// Stragglers: a machine slowed by a transient fault stretches
		// every task that starts during the slowdown window.
		dur := r.taskDuration(t) * r.faults.SlowdownFactor(m, now)
		startSeq := sr.emitTask(trace.KindTaskStart, t, m, now, now, 0, cause)
		sr.attempts = append(sr.attempts, runAttempt{task: t, machine: m, dur: dur})
		r.push(event{sr: sr, at: now + dur, kind: evTaskDone, task: t, machine: m, start: now, dur: dur, startSeq: startSeq})
	}
}

// dropAttempt unregisters the running attempt of task t on machine m,
// preserving the start order of the remaining attempts.
func (sr *stageRun) dropAttempt(t *Task, m cluster.MachineID) {
	for i, a := range sr.attempts {
		if a.task == t && a.machine == m {
			sr.attempts = append(sr.attempts[:i], sr.attempts[i+1:]...)
			return
		}
	}
}

func (r *Runner) taskDuration(t *Task) float64 {
	return t.Compute + float64(t.DiskRead+t.DiskWrite)/r.cfg.Topo.DiskBandwidth()
}

func (sr *stageRun) onTaskDone(e *event) int {
	r := sr.r
	if r.dead[e.machine] {
		// The machine died while this completion event was in flight;
		// the failure handler already requeued the task. If this stale
		// completion still advances the stage barrier, blame the failure.
		return r.failSeq[e.machine]
	}
	t := e.task
	acct := sr.exec.acct
	sr.dropAttempt(t, e.machine)
	acct.MachineSeconds += e.dur
	acct.DiskBytes += t.DiskRead + t.DiskWrite
	acct.TasksRun++
	sr.busy += e.dur
	endSeq := sr.emitTask(trace.KindTaskEnd, t, e.machine, e.at, e.start, e.at, e.startSeq)
	r.running[e.machine]--
	sr.copies[t.idx]--
	// This completion frees a slot: whatever launches next is its effect.
	if sr.committed[t.idx] {
		// A speculative duplicate losing the race: its work is charged
		// above, but the first completion already committed the results.
		r.startNext(e.machine, e.at, endSeq)
		return endSeq
	}
	sr.committed[t.idx] = true
	sr.taskMachine[t.idx] = e.machine
	sr.remaining--
	sr.doneDurs = append(sr.doneDurs, e.dur)
	// Launch output transfers toward next-stage task machines.
	if len(t.Outputs) > 0 {
		next := sr.exec.job.Stages[sr.stageIdx+1]
		for _, out := range t.Outputs {
			dst := next.Tasks[out.DstTask]
			dstM := dst.Machine
			if pm, err := r.place(dst); err == nil {
				dstM = pm
			}
			sr.sendBytes(&pendingTransfer{src: e.machine, dst: dstM, to: dst, bytes: out.Bytes,
				part: dst.Part, dstName: dst.Name, cause: endSeq}, e.at)
		}
	}
	r.startNext(e.machine, e.at, endSeq)
	sr.maybeSpeculate(e.at, endSeq)
	return endSeq
}

// maybeSpeculate is the job manager's straggler check (Appendix B records
// per-task progress; MapReduce-style backup tasks act on it): once enough
// of the stage has committed to trust the median task duration, every
// still-running task projected to overrun Factor × median gets one backup
// copy on a live replica holder of its partition. The first completed copy
// commits; the loop stays serial, so speculation preserves determinism.
// cause is the committed completion whose median triggered the check.
func (sr *stageRun) maybeSpeculate(now float64, cause int) {
	r := sr.r
	if !r.spec.Enabled || r.cfg.Replicas == nil {
		return
	}
	total := len(sr.stage.Tasks)
	median := medianOf(sr.doneDurs)
	// Collect stragglers from the running-attempt registry first: launching
	// backups mutates it via startNext. Attempts on dead machines were
	// already dropped by the failure handler.
	type straggler struct {
		t       *Task
		machine cluster.MachineID
	}
	var found []straggler
	for _, a := range sr.attempts {
		if sr.committed[a.task.idx] || sr.speculated[a.task.idx] || a.task.Part == NoPart {
			continue
		}
		if r.spec.IsStraggler(a.dur, median, len(sr.doneDurs), total) {
			found = append(found, straggler{t: a.task, machine: a.machine})
		}
	}
	// Deterministic launch order: the registry order is deterministic, but
	// sort by task name anyway so the order is obvious, not incidental.
	sort.Slice(found, func(i, j int) bool { return found[i].t.Name < found[j].t.Name })
	for _, s := range found {
		backup := r.backupMachine(s.t, s.machine)
		if backup < 0 {
			continue
		}
		sr.speculated[s.t.idx] = true
		sr.exec.acct.Speculations++
		specSeq := sr.emit(trace.Event{Kind: trace.KindSpeculate, Name: s.t.Name, Cause: cause,
			Machine: int(backup), Dst: trace.None, Part: int(s.t.Part), Time: now})
		r.queues[backup] = append(r.queues[backup], queued{sr: sr, t: s.t})
		r.startNext(backup, now, specSeq)
	}
}

// backupMachine picks the first available replica holder of the task's
// partition that is not the machine already running it, or -1 when none
// exists. Draining, retired and dormant machines do not accept backups.
func (r *Runner) backupMachine(t *Task, running cluster.MachineID) cluster.MachineID {
	for _, m := range r.cfg.Replicas.Machines[t.Part] {
		if m != running && !r.unavailable(m) {
			return m
		}
	}
	return -1
}

// medianOf returns the median of a non-empty sample (0 when empty). The
// sample is copied; the caller's order is preserved.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sendBytes schedules a transfer, serializing with earlier transfers on the
// sender's egress NIC and the receiver's ingress NIC. Intra-machine moves
// are free. The destination task's partition and name are recorded on the
// trace event so traffic can be attributed per partition and the transfer
// → receiving-task edge is visible; cause is the Seq of the event that
// produced the bytes.
func (sr *stageRun) sendBytes(ts *pendingTransfer, now float64) {
	if ts.bytes <= 0 || ts.src == ts.dst {
		return
	}
	sr.inflight++
	sr.dispatch(ts, now)
}

// dispatch issues one attempt of a (possibly retried) transfer at time now.
// A blackholed attempt holds both NICs until the sender's timeout, then
// schedules a backoff retry; a successful attempt occupies the NICs for
// bytes / (bandwidth ÷ degradation factor) seconds and delivers the bytes.
func (sr *stageRun) dispatch(ts *pendingTransfer, now float64) {
	r := sr.r
	acct := sr.exec.acct
	egFree, inFree := r.egressFree[ts.src], r.ingressFree[ts.dst]
	start := max(now, egFree, inFree)
	if r.faults.DropsTransfer(ts.src, ts.dst, start) {
		// The attempt makes no progress, but the sender cannot know that
		// until its timeout fires: both NICs stay held until detection.
		detect := start + r.retry.Timeout
		r.egressFree[ts.src] = detect
		r.ingressFree[ts.dst] = detect
		ts.attempt++
		acct.TransferDrops++
		dropSeq := sr.emit(trace.Event{Kind: trace.KindTransferDrop, Name: ts.dstName,
			Cause: ts.cause, Machine: int(ts.src), Dst: int(ts.dst), Part: int(ts.part), Bytes: ts.bytes,
			Time: now, Start: start, End: detect, Attempt: ts.attempt})
		if r.retry.MaxAttempts > 0 && ts.attempt >= r.retry.MaxAttempts {
			r.err = fmt.Errorf("engine: transfer %d→%d (%d bytes) dropped %d times; retry budget exhausted",
				ts.src, ts.dst, ts.bytes, ts.attempt)
			return
		}
		r.push(event{sr: sr, at: detect + r.retry.BackoffAt(ts.attempt), kind: evTransferRetry, transfer: ts, traceSeq: dropSeq})
		return
	}
	factor := r.faults.LinkFactor(ts.src, ts.dst, start)
	// An elastic machine's NIC line rate caps the link in both directions
	// (min of link bandwidth and either endpoint's rate), the slow-spot-
	// instance model.
	bw := r.cfg.Topo.Bandwidth(ts.src, ts.dst)
	if nr := r.nicRate[ts.src]; nr > 0 && nr < bw {
		bw = nr
	}
	if nr := r.nicRate[ts.dst]; nr > 0 && nr < bw {
		bw = nr
	}
	dur := float64(ts.bytes) * factor / bw
	r.egressFree[ts.src] = start + dur
	r.ingressFree[ts.dst] = start + dur
	// Only delivered bytes count as network I/O; dropped attempts moved
	// nothing.
	acct.NetworkBytes += ts.bytes
	kind := trace.KindTransfer
	if ts.migrate {
		kind = trace.KindPartitionMigrate
	}
	seq := sr.emit(trace.Event{Kind: kind, Name: ts.dstName,
		Cause: ts.cause, Machine: int(ts.src), Dst: int(ts.dst), Part: int(ts.part), Bytes: ts.bytes,
		Time: now, Start: start, End: start + dur, Stall: start - now,
		// The receiver's ingress NIC is the binding constraint when it
		// frees no earlier than the sender's egress — the incast case.
		Incast:  inFree > now && inFree >= egFree,
		Attempt: ts.attempt, Degraded: factor > 1,
	})
	// The completion handler reads the record to rehome a migrated
	// partition on arrival.
	r.push(event{sr: sr, at: start + dur, kind: evTransferDone, transfer: ts, traceSeq: seq})
}

// onTransferRetry re-issues a dropped transfer once its backoff elapses.
func (sr *stageRun) onTransferRetry(e *event) int {
	ts := e.transfer
	sr.exec.acct.TransferRetries++
	retrySeq := sr.emit(trace.Event{Kind: trace.KindTransferRetry, Name: ts.dstName,
		Cause: e.traceSeq, Machine: int(ts.src), Dst: int(ts.dst), Part: int(ts.part),
		Time: e.at, Attempt: ts.attempt})
	// The re-issued attempt is caused by the retry, not the original send.
	ts.cause = retrySeq
	if ts.to != nil {
		if pm, err := sr.r.place(ts.to); err == nil {
			if pm == ts.src {
				// The task now lands where the data already is.
				sr.inflight--
				return retrySeq
			}
			ts.dst = pm
		}
	}
	sr.dispatch(ts, e.at)
	return retrySeq
}

// failMachine executes a machine death at time at: the failure trace event,
// anchored to sr, cites cause (the stage begin for scheduled failures, the
// machine-drain for an expired drain deadline); every open stage run
// collects its lost work and schedules the manager's reaction one heartbeat
// later. A scheduled failure is exogenous; anchoring it to the enclosing
// stage keeps the DAG rooted, and the analyzer blames the gap to the stage's
// start on the fault model (retry backoff), not on work.
func (r *Runner) failMachine(sr *stageRun, m cluster.MachineID, at float64, cause int) int {
	if r.dead[m] {
		return r.failSeq[m]
	}
	r.dead[m] = true
	failSeq := r.emitIn(sr, trace.Event{Kind: trace.KindFailure, Cause: cause,
		Machine: int(m), Dst: trace.None, Part: trace.None, Time: at})
	r.failSeq[m] = failSeq
	r.lastFailSeq = failSeq
	lostQueue := r.queues[m]
	r.queues[m] = nil
	for _, o := range r.open {
		o.lose(m, lostQueue, at, failSeq)
	}
	r.running[m] = 0
	return failSeq
}

// lose collects this stage run's work lost with machine m — its entries in
// the machine's queue, then its attempts running there — and schedules the
// recovery one heartbeat later, holding the barrier until then.
func (sr *stageRun) lose(m cluster.MachineID, lostQueue []queued, at float64, failSeq int) {
	var lost []*Task
	// Queued tasks are lost — unless another copy is committed or still
	// running elsewhere (a queued speculative backup loses nothing).
	for _, q := range lostQueue {
		if q.sr == sr && !sr.committed[q.t.idx] && sr.copies[q.t.idx] == 0 {
			lost = append(lost, q.t)
		}
	}
	// Running tasks are lost in attempt-start order: their completion
	// events stay on the queue, but the completion handler sees the dead
	// machine and ignores them. A task is only requeued when this death
	// killed its last running copy and no copy has committed — a surviving
	// speculative backup carries on.
	kept := sr.attempts[:0]
	for _, a := range sr.attempts {
		if a.machine != m {
			kept = append(kept, a)
			continue
		}
		sr.copies[a.task.idx]--
		if !sr.committed[a.task.idx] && sr.copies[a.task.idx] == 0 {
			lost = append(lost, a.task)
		}
	}
	sr.attempts = kept
	for _, t := range lost {
		sr.emitTask(trace.KindTaskLost, t, m, at, 0, 0, failSeq)
	}
	sr.r.push(event{sr: sr, at: at + sr.r.cfg.HeartbeatInterval, kind: evRecovery, lost: lost, traceSeq: failSeq})
	// Keep the recovery event from racing stage completion.
	sr.inflight++
}

// onRecovery reassigns lost tasks to replica machines, re-transferring the
// inputs of Combine-type tasks (Appendix B).
func (sr *stageRun) onRecovery(e *event) int {
	r := sr.r
	sr.inflight--
	for _, t := range e.lost {
		if sr.committed[t.idx] {
			// A copy elsewhere committed between the failure and the
			// manager noticing it; nothing to recover.
			continue
		}
		m, err := r.failover(t)
		if err != nil {
			// No live replica: surface as a deadlock; tests assert on
			// the error path via Run's deadlock message.
			continue
		}
		sr.exec.acct.Recoveries++
		// The retry is caused by the failure (via the heartbeat); emit it
		// before the input re-transfers so they can cite it as their cause.
		retrySeq := sr.emitTask(trace.KindRetry, t, m, e.at, 0, 0, e.traceSeq)
		if t.Kind == KindCombine && sr.prev != nil {
			// Re-transfer this task's inputs from their producers.
			for pi, pt := range sr.prev.stage.Tasks {
				for _, out := range pt.Outputs {
					if out.DstTask != t.idx {
						continue
					}
					src := sr.prev.taskMachine[pi]
					if src < 0 || r.dead[src] {
						// Producer machine gone: fetch from the
						// producing partition's replica.
						if fm, err := r.failover(pt); err == nil {
							src = fm
						} else {
							continue
						}
					}
					sr.sendBytes(&pendingTransfer{src: src, dst: m, bytes: out.Bytes,
						part: t.Part, dstName: t.Name, cause: retrySeq}, e.at)
				}
			}
		}
		r.queues[m] = append(r.queues[m], queued{sr: sr, t: t})
		r.startNext(m, e.at, retrySeq)
	}
	return e.traceSeq
}

// failover picks an available replica machine for a task's partition.
// Availability excludes dead machines and — under elastic membership —
// dormant, draining and retired ones. A task with no replica to fail over
// to (unpinned, or no replica set configured) goes to the first available
// machine.
func (r *Runner) failover(t *Task) (cluster.MachineID, error) {
	if t.Part == NoPart || r.cfg.Replicas == nil {
		for i := range r.queues {
			if !r.unavailable(cluster.MachineID(i)) {
				return cluster.MachineID(i), nil
			}
		}
		return 0, fmt.Errorf("engine: no live machines")
	}
	return r.cfg.Replicas.FailoverFunc(t.Part, r.unavailable)
}
