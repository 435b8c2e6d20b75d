// Package scheduler implements the top box of Surfer's architecture
// (Figure 1, §3): the job scheduler that maintains cluster membership and
// coordinates resource scheduling across jobs. For every job it elects a
// live machine as the job manager (Appendix B, Step 2: "the job scheduler
// selects a machine as the job manager"), dispatches the job, and records
// queueing and execution statistics.
//
// Jobs run in virtual time on a shared engine.Runner, one at a time (the
// cluster is the resource). The ordering policy decides which queued job
// runs next: FIFO for simple deployments, or fair sharing across users in
// the spirit of Quincy [11], picking the job whose user has received the
// least cluster time so far.
package scheduler

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/trace"
)

// Policy orders the pending job queue.
type Policy int

const (
	// FIFO runs jobs in submission order.
	FIFO Policy = iota
	// Fair runs the job of the least-served user first (ties by
	// submission order).
	Fair
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case Fair:
		return "fair"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// JobFunc is the body of a job: it receives the runner and performs its
// stages (typically via propagation or mapreduce helpers).
type JobFunc func(r *engine.Runner) (engine.Metrics, error)

// Request is a job submission.
type Request struct {
	Name string
	User string
	Run  JobFunc
}

// Record is the scheduler's account of one executed job.
type Record struct {
	Name string
	User string
	// Manager is the machine elected as this job's manager.
	Manager cluster.MachineID
	// SubmittedAt / StartedAt / FinishedAt are virtual times.
	SubmittedAt float64
	StartedAt   float64
	FinishedAt  float64
	Metrics     engine.Metrics
	Err         error
}

// WaitSeconds is how long the job queued before starting.
func (rec Record) WaitSeconds() float64 { return rec.StartedAt - rec.SubmittedAt }

// Config configures a Scheduler.
type Config struct {
	// Runner is the shared cluster every job runs on. Build it from the
	// deployment (core.System.NewRunner), so jobs see the deployment's
	// replicas, failure plan, heartbeat, faults, workers and trace.
	Runner *engine.Runner
	Policy Policy
}

// Scheduler coordinates jobs over one shared simulated cluster.
type Scheduler struct {
	policy Policy
	runner *engine.Runner
	// pending jobs in submission order.
	pending []pendingJob
	records []Record
	// served tracks cluster seconds consumed per user (for Fair).
	served map[string]float64
	// managerCursor rotates job-manager election over live machines.
	managerCursor int
	submitSeq     int
}

type pendingJob struct {
	req         Request
	submittedAt float64
	seq         int
}

// New creates a scheduler over the configured runner.
func New(cfg Config) *Scheduler {
	return &Scheduler{policy: cfg.Policy, runner: cfg.Runner, served: make(map[string]float64)}
}

// Runner exposes the shared runner (for workload helpers that need it).
func (s *Scheduler) Runner() *engine.Runner { return s.runner }

// Submit queues a job at the current virtual time. The submission itself is
// traced (KindJobQueued), so the gap to the job's begin event — scheduler
// queueing delay — is visible in analysis.
func (s *Scheduler) Submit(req Request) {
	if req.Run == nil {
		panic("scheduler: job without a body")
	}
	s.runner.Trace().Emit(trace.Event{Kind: trace.KindJobQueued, Job: req.Name,
		Cause: trace.None, Machine: trace.None, Dst: trace.None, Part: trace.None,
		Time: s.runner.Clock()})
	s.pending = append(s.pending, pendingJob{
		req:         req,
		submittedAt: s.runner.Clock(),
		seq:         s.submitSeq,
	})
	s.submitSeq++
}

// Pending reports the number of queued jobs.
func (s *Scheduler) Pending() int { return len(s.pending) }

// Records returns the completed job records in execution order.
func (s *Scheduler) Records() []Record {
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}

// Membership reports the live machines, as tracked through the engine's
// failure handling.
func (s *Scheduler) Membership() []cluster.MachineID {
	var live []cluster.MachineID
	for i := 0; i < s.runner.NumMachines(); i++ {
		m := cluster.MachineID(i)
		if !s.runner.IsDead(m) {
			live = append(live, m)
		}
	}
	return live
}

// electManager picks the next job manager round-robin over live machines.
func (s *Scheduler) electManager() (cluster.MachineID, error) {
	live := s.Membership()
	if len(live) == 0 {
		return 0, fmt.Errorf("scheduler: no live machines")
	}
	m := live[s.managerCursor%len(live)]
	s.managerCursor++
	return m, nil
}

// next removes and returns the job the policy schedules next.
func (s *Scheduler) next() pendingJob {
	idx := 0
	switch s.policy {
	case Fair:
		// Least-served user first; within a user, submission order.
		sort.SliceStable(s.pending, func(i, j int) bool {
			si, sj := s.served[s.pending[i].req.User], s.served[s.pending[j].req.User]
			if si != sj {
				return si < sj
			}
			return s.pending[i].seq < s.pending[j].seq
		})
	default:
		sort.SliceStable(s.pending, func(i, j int) bool {
			return s.pending[i].seq < s.pending[j].seq
		})
	}
	job := s.pending[idx]
	s.pending = append(s.pending[:idx], s.pending[idx+1:]...)
	return job
}

// RunOne executes the next scheduled job; it reports false when the queue
// is empty.
func (s *Scheduler) RunOne() bool {
	if len(s.pending) == 0 {
		return false
	}
	job := s.next()
	manager, err := s.electManager()
	rec := Record{
		Name:        job.req.Name,
		User:        job.req.User,
		Manager:     manager,
		SubmittedAt: job.submittedAt,
		StartedAt:   s.runner.Clock(),
	}
	if err != nil {
		rec.Err = err
		rec.FinishedAt = s.runner.Clock()
		s.records = append(s.records, rec)
		return true
	}
	m, err := job.req.Run(s.runner)
	rec.Metrics = m
	rec.Err = err
	rec.FinishedAt = s.runner.Clock()
	s.served[job.req.User] += rec.FinishedAt - rec.StartedAt
	s.records = append(s.records, rec)
	return true
}

// RunAll drains the queue, including jobs submitted by earlier jobs.
func (s *Scheduler) RunAll() {
	for s.RunOne() {
	}
}

// UserService reports the cluster seconds consumed per user so far.
func (s *Scheduler) UserService() map[string]float64 {
	out := make(map[string]float64, len(s.served))
	for u, t := range s.served {
		out[u] = t
	}
	return out
}
