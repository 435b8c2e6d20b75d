// Package jobsvc is Surfer's multi-tenant job service: a submission queue
// over the simulated cluster that runs many jobs *concurrently* in one
// virtual clock, so their transfers contend on the same per-machine NICs
// and links — the cloud regime of §1–2 where network bandwidth is the
// shared, fought-over resource, generalizing the one-job-at-a-time
// scheduler package.
//
// The service decides; the engine executes. Jobs run as engine.Exec
// executions on one engine.Runner's event loop, which owns everything about
// execution — task slots, NIC serialization and incast, link degradation,
// drop → timeout → backoff retries, slowdowns, elastic joins, drains and
// NIC caps — exactly as for a single engine.Runner.Run job. The service
// keeps only admission, arrivals (Runner.At callbacks), per-tenant vruntime
// and the policy that, at the engine's barrier hook, decides which job
// holds the cluster next.
//
// A job arrives at its spec's submit time, waits in the queue for a run
// slot (Config.Concurrency bounds how many jobs hold the cluster at once),
// and then executes its pre-planned engine jobs stage by stage. Scheduling
// decisions happen only at arrivals and stage barriers — a running stage is
// never torn down — which keeps preemption cheap and the determinism
// argument simple. Three policies order the queue: FIFO (submission order,
// run to completion), Fair (CFS-style: the tenant with the least delivered
// machine-seconds runs next, so a heavy tenant is preempted at barriers
// while light tenants catch up), and Priority (strict: a higher-priority
// arrival preempts lower-priority jobs at their next barrier). Admission
// control (Config.QueueLimit) rejects arrivals when the queue is over
// budget, deterministically.
//
// Sharing the engine's loop fixes three rules (DESIGN.md, "Job service"):
// at equal virtual times an arrival runs before every engine event, and
// engine events keep the engine's order (task-done, transfer-done,
// failure, recovery, retry, join, drain) with one global sequence number
// breaking ties; a join or drain takes effect when its event pops, so one
// at the same instant as a barrier or arrival takes effect after it; and a
// task displaced from a draining or dormant machine with no replica to go
// to lands on the first available machine, while a drain without replicas
// has nothing to migrate and retires the machine at once.
//
// Determinism contract: the engine loop is serial in virtual time — the
// worker pool parallelism only ever runs semantic *planning* compute (see
// propagation.PlanIterations), never this loop — so per-job results,
// latencies and the trace stream are bit-identical for every worker count,
// with or without a fault schedule. Every scheduler decision is traced
// (job-queued / job-admitted / job-preempted / job-resumed / job-rejected)
// with causal edges, so surfer-analyze can attribute makespan to queueing
// (the queued-preempted blame category).
package jobsvc

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Policy selects the queue-ordering discipline.
type Policy int

const (
	// FIFO runs jobs in submission order, to completion (no preemption).
	FIFO Policy = iota
	// Fair is CFS-style fair sharing: each tenant accrues virtual runtime
	// (delivered machine-seconds); the runnable job of the least-served
	// tenant wins every barrier. New tenants start at the minimum live
	// vruntime, so they get service promptly without starving incumbents.
	Fair
	// Priority is strict priority (higher Spec.Priority first, ties by
	// submission order) with preemption at stage barriers.
	Priority
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Fair:
		return "fair"
	case Priority:
		return "priority"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Policies lists every policy in report order.
var Policies = []Policy{FIFO, Fair, Priority}

// ParsePolicy resolves a policy name ("fifo", "fair", "priority").
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("jobsvc: unknown policy %q (want fifo, fair or priority)", s)
}

// Config configures one service run.
type Config struct {
	Topo   *cluster.Topology
	Policy Policy
	// Concurrency is how many jobs may hold the cluster (have an active
	// stage) at once. <= 0 selects 2.
	Concurrency int
	// QueueLimit bounds the jobs waiting for admission: an arrival that
	// finds QueueLimit jobs already queued is rejected. 0 = unlimited.
	QueueLimit int
	// SlotsPerMachine is each machine's task slot count. <= 0 selects 1.
	SlotsPerMachine int
	// Trace receives the event stream; nil disables tracing.
	Trace *trace.Recorder
	// Faults injects transient link faults and machine slowdowns shared by
	// every job; Retry tunes dropped-transfer recovery.
	Faults *fault.Schedule
	Retry  fault.RetryPolicy
}

// Job is one unit of submission: a spec plus its pre-planned engine jobs.
// Plans are pure functions of graph, program and placement (see
// propagation.PlanIterations), so planning once and replaying under any
// policy yields identical per-job results.
type Job struct {
	Spec JobSpec
	Plan []*engine.Job
}

// Record is the service's account of one submitted job.
type Record struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	// Submitted, Admitted and Finished are virtual times; Admitted and
	// Finished are zero for rejected jobs.
	Submitted float64 `json:"submitted"`
	Admitted  float64 `json:"admitted"`
	Finished  float64 `json:"finished"`
	// Rejected reports the job was refused by admission control.
	Rejected bool `json:"rejected,omitempty"`
	// Preemptions counts barrier preemptions the job suffered.
	Preemptions int `json:"preemptions,omitempty"`
	// Resource accounting over the job's whole plan.
	MachineSeconds  float64 `json:"machine_seconds"`
	NetworkBytes    int64   `json:"network_bytes"`
	DiskBytes       int64   `json:"disk_bytes"`
	TasksRun        int     `json:"tasks_run"`
	TransferDrops   int     `json:"transfer_drops,omitempty"`
	TransferRetries int     `json:"transfer_retries,omitempty"`
}

// Latency is the submit→finish response time (0 for rejected jobs).
func (r Record) Latency() float64 {
	if r.Rejected {
		return 0
	}
	return r.Finished - r.Submitted
}

// WaitSeconds is the submit→admit queueing delay (0 for rejected jobs).
func (r Record) WaitSeconds() float64 {
	if r.Rejected {
		return 0
	}
	return r.Admitted - r.Submitted
}

// Run executes the workload under the config's policy and returns one
// record per job, in arrival order (ties by input order).
func Run(cfg Config, jobs []Job) ([]Record, error) {
	s, err := newService(cfg, jobs)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// jobState is a submitted job's lifecycle position.
type jobState int

const (
	jsQueued  jobState = iota
	jsActive           // holds a run slot, stage in flight
	jsBarrier          // between stages, still holding its candidacy this instant
	jsPreempted
	jsDone
	jsRejected
)

// jobRun is the service's mutable state for one submitted job.
type jobRun struct {
	job   Job
	idx   int // arrival order
	state jobState
	// planIdx locates the plan job executing (or next to), exec its
	// execution on the engine loop and met the engine's accounting of the
	// work over the whole plan.
	planIdx int
	exec    *engine.Exec
	met     engine.Metrics
	// Trace threading.
	queuedSeq  int
	preemptSeq int
	nextCause  int // cause of the job's next begin/stage-begin
	rec        Record
}

func (jr *jobRun) id() string { return jr.job.Spec.ID }

// service is the admission queue and barrier policy over one engine
// runner. Everything here runs on the caller's goroutine, inside the
// runner's serial loop — the determinism anchor.
type service struct {
	cfg Config
	r   *engine.Runner
	tr  *trace.Recorder

	jobs      []*jobRun // arrival order
	queued    []*jobRun // waiting for admission, arrival order
	preempted []*jobRun // preemption order
	active    int       // jobs holding a run slot

	// vruntime is each tenant's fair-share clock: delivered machine-seconds.
	vruntime map[string]float64

	// lastQueuedSeq chains arrival events causally (first arrival is root).
	lastQueuedSeq int
}

func newService(cfg Config, jobs []Job) (*service, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("jobsvc: config without a topology")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if err := cfg.Faults.Validate(cfg.Topo.NumMachines()); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if j.Spec.ID == "" {
			return nil, fmt.Errorf("jobsvc: job %d has no ID", i)
		}
		if seen[j.Spec.ID] {
			return nil, fmt.Errorf("jobsvc: duplicate job ID %q", j.Spec.ID)
		}
		seen[j.Spec.ID] = true
		if j.Spec.Tenant == "" {
			return nil, fmt.Errorf("jobsvc: job %q has no tenant", j.Spec.ID)
		}
		if j.Spec.Submit < 0 {
			return nil, fmt.Errorf("jobsvc: job %q submits at negative time %g", j.Spec.ID, j.Spec.Submit)
		}
		if len(j.Plan) == 0 {
			return nil, fmt.Errorf("jobsvc: job %q has an empty plan", j.Spec.ID)
		}
		for _, pj := range j.Plan {
			if err := pj.Validate(cfg.Topo); err != nil {
				return nil, fmt.Errorf("jobsvc: job %q: %w", j.Spec.ID, err)
			}
			if len(pj.Stages) == 0 {
				return nil, fmt.Errorf("jobsvc: job %q plan %q has no stages", j.Spec.ID, pj.Name)
			}
			for si, st := range pj.Stages {
				if len(st.Tasks) == 0 {
					return nil, fmt.Errorf("jobsvc: job %q plan %q stage %d has no tasks", j.Spec.ID, pj.Name, si)
				}
			}
		}
	}
	s := &service{
		cfg: cfg,
		r: engine.New(engine.Config{Topo: cfg.Topo, SlotsPerMachine: cfg.SlotsPerMachine,
			Workers: 1, Trace: cfg.Trace, Faults: cfg.Faults, Retry: cfg.Retry}),
		tr:            cfg.Trace,
		vruntime:      make(map[string]float64),
		lastQueuedSeq: trace.None,
	}
	// Arrival order: submit time, ties by input order (stable).
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return jobs[order[a]].Spec.Submit < jobs[order[b]].Spec.Submit
	})
	for idx, ji := range order {
		jr := &jobRun{job: jobs[ji], idx: idx, nextCause: trace.None}
		jr.rec = Record{
			ID:       jr.job.Spec.ID,
			Tenant:   jr.job.Spec.Tenant,
			Priority: jr.job.Spec.Priority,
		}
		s.jobs = append(s.jobs, jr)
		s.r.At(jr.job.Spec.Submit, func() { s.onArrival(jr) })
	}
	return s, nil
}

func (s *service) run() ([]Record, error) {
	if err := s.r.Loop(); err != nil {
		return nil, fmt.Errorf("jobsvc: %w", err)
	}
	recs := make([]Record, len(s.jobs))
	for i, jr := range s.jobs {
		if jr.state != jsDone && jr.state != jsRejected {
			return nil, fmt.Errorf("jobsvc: job %q stalled in state %d with no events pending", jr.id(), jr.state)
		}
		m := jr.met
		jr.rec.MachineSeconds, jr.rec.NetworkBytes, jr.rec.DiskBytes = m.MachineSeconds, m.NetworkBytes, m.DiskBytes
		jr.rec.TasksRun, jr.rec.TransferDrops, jr.rec.TransferRetries = m.TasksRun, m.TransferDrops, m.TransferRetries
		recs[i] = jr.rec
	}
	return recs, nil
}

// onArrival queues (or rejects) an arriving job and runs a schedule pass.
func (s *service) onArrival(jr *jobRun) {
	at := s.r.Clock()
	jr.rec.Submitted = at
	jr.queuedSeq = s.tr.Emit(trace.Event{Kind: trace.KindJobQueued, Job: jr.id(),
		Tenant: jr.job.Spec.Tenant, Cause: s.lastQueuedSeq, Machine: trace.None,
		Dst: trace.None, Part: trace.None, Time: at})
	s.lastQueuedSeq = jr.queuedSeq
	if s.cfg.QueueLimit > 0 && len(s.queued) >= s.cfg.QueueLimit {
		s.tr.Emit(trace.Event{Kind: trace.KindJobRejected, Job: jr.id(),
			Tenant: jr.job.Spec.Tenant, Cause: jr.queuedSeq, Machine: trace.None,
			Dst: trace.None, Part: trace.None, Time: at})
		jr.state = jsRejected
		jr.rec.Rejected = true
		return
	}
	jr.state = jsQueued
	// Fair-share placement: a tenant's first live job starts its vruntime
	// at the minimum over tenants with unfinished jobs, so newcomers
	// neither monopolize (no zero debt to pay off) nor starve.
	if _, known := s.vruntime[jr.job.Spec.Tenant]; !known {
		s.vruntime[jr.job.Spec.Tenant] = s.minLiveVruntime()
	}
	s.queued = append(s.queued, jr)
	s.schedule(at, nil)
}

// minLiveVruntime scans jobs (a deterministic slice, never the map) for the
// smallest vruntime among tenants that still have unfinished jobs.
func (s *service) minLiveVruntime() float64 {
	min, found := 0.0, false
	for _, jr := range s.jobs {
		if jr.state == jsDone || jr.state == jsRejected {
			continue
		}
		v, known := s.vruntime[jr.job.Spec.Tenant]
		if !known {
			continue
		}
		if !found || v < min {
			min, found = v, true
		}
	}
	return min
}

// rankLess orders schedulable candidates under the policy. Lower ranks run
// first; ties always fall back to arrival order, which is unique.
func (s *service) rankLess(a, b *jobRun) bool {
	switch s.cfg.Policy {
	case Fair:
		va, vb := s.vruntime[a.job.Spec.Tenant], s.vruntime[b.job.Spec.Tenant]
		if va != vb {
			return va < vb
		}
	case Priority:
		if a.job.Spec.Priority != b.job.Spec.Priority {
			return a.job.Spec.Priority > b.job.Spec.Priority
		}
	default:
		// FIFO: jobs already admitted (barrier/preempted) outrank queued
		// ones, so admitted jobs run to completion; both classes order by
		// arrival.
		ca, cb := a.state == jsQueued, b.state == jsQueued
		if ca != cb {
			return cb
		}
	}
	return a.idx < b.idx
}

// schedule is the only place run slots change hands. It runs at arrivals,
// stage barriers and job completions; barrier (if non-nil) is a job that
// just finished a stage and competes to continue. Candidates are ranked
// under the policy and granted free slots; a losing barrier job is
// preempted.
func (s *service) schedule(now float64, barrier *jobRun) {
	cands := make([]*jobRun, 0, 1+len(s.preempted)+len(s.queued))
	if barrier != nil {
		cands = append(cands, barrier)
	}
	cands = append(cands, s.preempted...)
	cands = append(cands, s.queued...)
	sort.SliceStable(cands, func(i, j int) bool { return s.rankLess(cands[i], cands[j]) })
	free := s.cfg.Concurrency - s.active
	if free > len(cands) {
		free = len(cands)
	}
	for _, jr := range cands[:free] {
		s.grant(jr, now)
	}
	if barrier != nil && barrier.state == jsBarrier {
		// The barrier job lost its slot: preempt at the barrier.
		barrier.preemptSeq = s.tr.Emit(trace.Event{Kind: trace.KindJobPreempted,
			Job: barrier.id(), Tenant: barrier.job.Spec.Tenant, Cause: barrier.nextCause,
			Machine: trace.None, Dst: trace.None, Part: trace.None, Time: now})
		barrier.state = jsPreempted
		barrier.rec.Preemptions++
		s.preempted = append(s.preempted, barrier)
	}
}

// grant gives jr a run slot and starts its next stage.
func (s *service) grant(jr *jobRun, now float64) {
	switch jr.state {
	case jsQueued:
		s.queued = removeJob(s.queued, jr)
		admitSeq := s.tr.Emit(trace.Event{Kind: trace.KindJobAdmitted, Job: jr.id(),
			Tenant: jr.job.Spec.Tenant, Cause: jr.queuedSeq, Machine: trace.None,
			Dst: trace.None, Part: trace.None, Time: now})
		jr.rec.Admitted = now
		jr.nextCause = admitSeq
		s.startPlan(jr)
	case jsPreempted:
		s.preempted = removeJob(s.preempted, jr)
		resumeSeq := s.tr.Emit(trace.Event{Kind: trace.KindJobResumed, Job: jr.id(),
			Tenant: jr.job.Spec.Tenant, Cause: jr.preemptSeq, Machine: trace.None,
			Dst: trace.None, Part: trace.None, Time: now})
		jr.nextCause = resumeSeq
	case jsBarrier:
		// Continuing at its own barrier; nextCause is the stage/job end.
	default:
		panic(fmt.Sprintf("jobsvc: granting job %q in state %d", jr.id(), jr.state))
	}
	jr.state = jsActive
	s.active++
	jr.exec.Next(jr.nextCause)
}

func removeJob(list []*jobRun, jr *jobRun) []*jobRun {
	for i, x := range list {
		if x == jr {
			return append(list[:i], list[i+1:]...)
		}
	}
	panic("jobsvc: job missing from its scheduler list")
}

// startPlan prepares jr's current plan job for execution on the engine
// loop, traced as "<id>/<plan job>" — unique across tenants even when two
// jobs run the same app.
func (s *service) startPlan(jr *jobRun) {
	pj := jr.job.Plan[jr.planIdx]
	jr.exec = s.r.NewExec(pj, jr.id()+"/"+pj.Name, jr.job.Spec.Tenant, &jr.met,
		func(x *engine.Exec) { s.onBarrier(jr, x) })
}

// onBarrier is jr's engine barrier hook, run after each stage-end (and
// job-end): the stage's machine-seconds accrue to the tenant's fair-share
// vruntime, the run slot is released, and a schedule pass runs with jr
// competing to continue (or completing the job).
func (s *service) onBarrier(jr *jobRun, x *engine.Exec) {
	now := s.r.Clock()
	s.active--
	s.vruntime[jr.job.Spec.Tenant] += x.Busy()
	jr.nextCause = x.EndSeq()
	if x.Done() {
		jr.planIdx++
		if jr.planIdx >= len(jr.job.Plan) {
			jr.state = jsDone
			jr.rec.Finished = now
			s.schedule(now, nil)
			return
		}
		s.startPlan(jr)
	}
	jr.state = jsBarrier
	s.schedule(now, jr)
}
