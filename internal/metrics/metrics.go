// Package metrics is Surfer's windowed time-series layer: it folds the trace
// event stream into fixed virtual-clock windows — per-directed-link and
// per-bisection-level utilization, per-machine NIC queue depth, running
// tasks and inflight bytes, cluster disk I/O, per-tenant slot occupancy and
// admission wait, and retry/migration/checkpoint rates — and evaluates SLO
// alert rules against the sealed windows as they close.
//
// The same Collector serves both sampling paths. Live, it attaches to the
// engine's trace.Recorder as an Emit observer and folds each event the
// moment the serial event loop emits it; offline, FromEvents replays a
// captured raw event stream through the identical Observe loop in
// Seq order. Because the two paths execute the same code over the same
// ordered stream, their exported series are byte-identical — for every
// worker count, with or without faults and elastic churn — which is what
// lets the autoscaler, the alert engine and the dashboards all trust one
// set of numbers.
//
// Windowing semantics: window w covers [w·W, (w+1)·W) of virtual time.
// Count-like signals (bytes, rates, waits) are charged wholly to the window
// containing their event's Time, so window sums integrate exactly to the
// stream totals analyze computes. Span signals (utilization, running tasks,
// inflight bytes, slot occupancy) spread their Start..End interval over the
// windows it overlaps and export as time-weighted averages. A window seals
// — and alert rules evaluate — once the stream clock has advanced one full
// window past its end; span contributions arriving later (a long task whose
// end event lands windows after its start) still reach the exported series
// but are invisible to the already-sealed alert evaluation. That lag is the
// deterministic analogue of a real collector's scrape delay.
package metrics

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// sealLagWindows is how many whole windows the stream clock must advance
// past a window's end before it seals. One window of lag lets the span
// signals of short tasks and transfers land before their window is judged.
const sealLagWindows = 1

// Config parameterizes a Collector.
type Config struct {
	// Window is the fixed virtual-clock window length in seconds. Required.
	Window float64
	// Topo, when set, enables the per-bisection-level utilization series and
	// bounds the per-link series to its machines (mirroring the link
	// report's guards, so window sums reconcile with analyze exactly).
	Topo *cluster.Topology
	// Rules, when set, is evaluated at every window seal; breaches emit
	// alert-fired / alert-resolved events (live) and Alert records (always).
	Rules *RuleSet
}

// Collector folds an ordered event stream into windowed series. Create with
// NewCollector, feed with Observe (or Attach to a live Recorder), then call
// Finish exactly once.
type Collector struct {
	cfg     Config
	n       int     // machine count when Topo is set, else 0
	lvl     [][]int // bisection levels when Topo is set
	series  map[string]*series
	keys    []string // series keys in creation order (sorted on demand)
	sorted  bool
	lastSeq []int // per window: Seq of the last event whose Time fell in it
	// queuedAt maps a queued job's spec ID to its job-queued time, for the
	// admission-wait samples.
	queuedAt map[string]float64
	cursor   float64 // monotone max event Time seen
	maxTime  float64 // max Time/End seen: the extent of the series
	sealedTo int     // windows [0, sealedTo) have been sealed
	alerts   []Alert
	states   map[string]*alertState
	emit     func(trace.Event) int // live alert emission; nil offline
	finished bool
}

// NewCollector validates cfg and returns an empty collector.
func NewCollector(cfg Config) (*Collector, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("metrics: window must be positive, got %g", cfg.Window)
	}
	if cfg.Rules != nil {
		if err := cfg.Rules.Validate(); err != nil {
			return nil, err
		}
	}
	c := &Collector{
		cfg:      cfg,
		series:   make(map[string]*series),
		queuedAt: make(map[string]float64),
		states:   make(map[string]*alertState),
	}
	if cfg.Topo != nil {
		c.n = cfg.Topo.NumMachines()
		c.lvl = cluster.BisectionLevels(cfg.Topo)
	}
	return c, nil
}

// Attach registers the collector as a live observer on rec: every Emit is
// folded immediately, and alert events are emitted back into the same
// stream with real Seqs and causal edges. Call before the run starts.
func (c *Collector) Attach(rec *trace.Recorder) {
	c.emit = rec.Emit
	rec.Observe(c.Observe)
}

// FromEvents derives the series (and alert records) a live collector with
// the same config would have produced, by replaying a captured stream
// through the identical fold. Alert events already present in the stream
// (from a live run with rules) are skipped by the fold, so deriving from a
// live capture reproduces the live series byte for byte.
func FromEvents(events []trace.Event, cfg Config) (*Set, []Alert, error) {
	c, err := NewCollector(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, ev := range events {
		c.Observe(ev)
	}
	set := c.Finish()
	return set, c.Alerts(), nil
}

// windowOf maps a virtual time to its window index.
func (c *Collector) windowOf(t float64) int {
	if t <= 0 {
		return 0
	}
	return int(t / c.cfg.Window)
}

// spanWindows calls f(window, overlap seconds) for every window the
// interval [lo, hi) overlaps.
func (c *Collector) spanWindows(lo, hi float64, f func(w int, overlap float64)) {
	if hi <= lo {
		return
	}
	if lo < 0 {
		lo = 0
	}
	w := c.windowOf(lo)
	for {
		wlo := float64(w) * c.cfg.Window
		whi := wlo + c.cfg.Window
		olo, ohi := lo, hi
		if olo < wlo {
			olo = wlo
		}
		if ohi > whi {
			ohi = whi
		}
		if ohi > olo {
			f(w, ohi-olo)
		}
		if hi <= whi {
			return
		}
		w++
	}
}

// at returns (creating if needed) the series for key.
func (c *Collector) at(key string, cl class) *series {
	s := c.series[key]
	if s == nil {
		s = &series{class: cl}
		c.series[key] = s
		c.keys = append(c.keys, key)
		c.sorted = false
	}
	return s
}

// addAt charges v to the window containing t (count-like signals).
func (c *Collector) addAt(s *series, t, v float64) {
	w := c.windowOf(t)
	s.grow(w)
	s.acc[w] += v
}

// addSpan spreads rate × overlap over the windows [lo, hi) touches.
func (c *Collector) addSpan(s *series, lo, hi, rate float64) {
	c.spanWindows(lo, hi, func(w int, o float64) {
		s.grow(w)
		s.acc[w] += rate * o
	})
}

// disk charges bytes of cluster disk I/O to the window containing t. The
// series exists once a task ran; zero-byte events do not extend it.
func (c *Collector) disk(t float64, bytes int64) {
	s := c.at("disk-bytes", classSum)
	if bytes != 0 {
		c.addAt(s, t, float64(bytes))
	}
}

// counter applies a step change of delta at time t to a time-weighted
// counter series: the level held since the last change is flushed into the
// windows it spanned, then the level steps.
func (c *Collector) counter(key string, t, delta float64) {
	s := c.at(key, classAvg)
	c.addSpan(s, s.ctrSince, t, s.ctrVal)
	if t > s.ctrSince {
		s.ctrSince = t
	}
	s.ctrVal += delta
}

// flushCounters brings every counter series current to time t, so sealed
// windows carry the level that was held across them even when no step
// change landed nearby. Iterates in sorted key order (each counter touches
// only its own series, but the order is pinned anyway).
func (c *Collector) flushCounters(t float64) {
	for _, key := range c.sortedKeys() {
		s := c.series[key]
		if s.ctrVal != 0 || s.ctrSince > 0 {
			c.addSpan(s, s.ctrSince, t, s.ctrVal)
			if t > s.ctrSince {
				s.ctrSince = t
			}
		}
	}
}

// note records t (and optional span end) against the clock extents, and the
// event's Seq as the window's latest causal anchor.
func (c *Collector) note(ev *trace.Event) {
	if ev.Time > c.maxTime {
		c.maxTime = ev.Time
	}
	if ev.End > c.maxTime {
		c.maxTime = ev.End
	}
	w := c.windowOf(ev.Time)
	for len(c.lastSeq) <= w {
		c.lastSeq = append(c.lastSeq, trace.None)
	}
	c.lastSeq[w] = ev.Seq
}

// linkOK mirrors the link report's machine guards: non-negative IDs, and in
// range of the topology when one is configured.
func (c *Collector) linkOK(src, dst int) bool {
	if src < 0 || dst < 0 {
		return false
	}
	if c.n > 0 && (src >= c.n || dst >= c.n) {
		return false
	}
	return true
}

// Observe folds one event. Events must arrive in Seq order (the Recorder
// guarantees this live; FromEvents replays captures in stream order).
func (c *Collector) Observe(ev trace.Event) {
	if c == nil || c.finished {
		return
	}
	switch ev.Kind {
	case trace.KindAlertFired, trace.KindAlertResolved:
		// Alerts are outputs of this fold, not inputs: skipping them makes
		// deriving from a live capture (which contains them) reproduce the
		// live series exactly, and keeps the rule engine from feeding back.
		return
	}

	switch ev.Kind {
	case trace.KindTransfer, trace.KindPartitionMigrate:
		if c.linkOK(ev.Machine, ev.Dst) {
			link := c.at(fmt.Sprintf("link-util:%d>%d", ev.Machine, ev.Dst), classAvg)
			var level *series
			if c.lvl != nil {
				level = c.at(fmt.Sprintf("level-util:%d", c.lvl[ev.Machine][ev.Dst]), classAvg)
			}
			c.spanWindows(ev.Start, ev.End, func(w int, o float64) {
				link.grow(w)
				link.acc[w] += o
				if level != nil {
					// The level series tracks its hottest directed link per
					// window; link accumulators only grow, so a running max
					// stays correct as later transfers land.
					level.grow(w)
					if link.acc[w] > level.acc[w] {
						level.acc[w] = link.acc[w]
					}
				}
			})
			c.addAt(c.at(fmt.Sprintf("link-bytes:%d>%d", ev.Machine, ev.Dst), classSum), ev.Time, float64(ev.Bytes))
			c.addSpan(c.at(fmt.Sprintf("machine-inflight-bytes:%d", ev.Dst), classAvg), ev.Time, ev.End, float64(ev.Bytes))
		}
		if ev.Machine >= 0 {
			// NIC queue depth: the transfer waited on the source machine's
			// egress from issue until both NICs freed up.
			c.addSpan(c.at(fmt.Sprintf("machine-queue:%d", ev.Machine), classAvg), ev.Time, ev.Start, 1)
		}
		if ev.Kind == trace.KindPartitionMigrate {
			c.addAt(c.at("rate-migrations", classSum), ev.Time, 1)
		}
	case trace.KindTaskStart:
		// Disk I/O: a task's read is charged when it starts — so the reads
		// of attempts later lost to a failure count — and its write when it
		// ends.
		c.disk(ev.Time, ev.DiskRead)
	case trace.KindTaskEnd:
		if ev.Machine >= 0 {
			c.addSpan(c.at(fmt.Sprintf("machine-tasks:%d", ev.Machine), classAvg), ev.Start, ev.End, 1)
		}
		c.disk(ev.Time, ev.DiskWrite)
	case trace.KindTransferDrop:
		if ev.Machine >= 0 {
			c.addSpan(c.at(fmt.Sprintf("machine-queue:%d", ev.Machine), classAvg), ev.Time, ev.Start, 1)
		}
		c.addAt(c.at("rate-transfer-drops", classSum), ev.Time, 1)
	case trace.KindTransferRetry:
		c.addAt(c.at("rate-transfer-retries", classSum), ev.Time, 1)
	case trace.KindRetry:
		c.addAt(c.at("rate-retries", classSum), ev.Time, 1)
	case trace.KindSpeculate:
		c.addAt(c.at("rate-speculations", classSum), ev.Time, 1)
	case trace.KindFailure:
		c.addAt(c.at("rate-failures", classSum), ev.Time, 1)
	case trace.KindCheckpoint:
		c.addAt(c.at("rate-checkpoints", classSum), ev.Time, 1)
	case trace.KindRestore:
		c.addAt(c.at("rate-restores", classSum), ev.Time, 1)
	case trace.KindJobQueued:
		c.counter("queue-depth", ev.Time, 1)
		c.queuedAt[ev.Job] = ev.Time
	case trace.KindJobAdmitted:
		c.counter("queue-depth", ev.Time, -1)
		if qt, ok := c.queuedAt[ev.Job]; ok {
			delete(c.queuedAt, ev.Job)
			if ev.Tenant != "" {
				s := c.at("tenant-wait-p99:"+ev.Tenant, classP99)
				s.sample(c.windowOf(ev.Time), ev.Time-qt)
			}
		}
	case trace.KindJobRejected:
		c.counter("queue-depth", ev.Time, -1)
		delete(c.queuedAt, ev.Job)
	case trace.KindStageBegin:
		if ev.Tenant != "" {
			// A run slot is held exactly while a stage runs (the scheduler
			// re-arbitrates slots at every barrier), so slot occupancy is the
			// stage-begin/stage-end bracket.
			c.counter("tenant-slots:"+ev.Tenant, ev.Time, 1)
		}
	case trace.KindStageEnd:
		if ev.Tenant != "" {
			c.counter("tenant-slots:"+ev.Tenant, ev.Time, -1)
		}
	}

	c.note(&ev)
	if ev.Time > c.cursor {
		c.cursor = ev.Time
		c.sealTo(c.cursor)
	}
}

// sealTo seals (and rule-evaluates) every window whose end is at least one
// full seal-lag window behind the stream clock.
func (c *Collector) sealTo(clock float64) {
	flushed := false
	for float64(c.sealedTo+1+sealLagWindows)*c.cfg.Window <= clock {
		if !flushed {
			c.flushCounters(clock)
			flushed = true
		}
		c.seal(c.sealedTo)
		c.sealedTo++
	}
}

// Finish flushes the counters, seals every remaining window, and returns
// the exported series set. Call exactly once; further Observe calls are
// ignored.
func (c *Collector) Finish() *Set {
	if c.finished {
		return nil
	}
	c.flushCounters(c.maxTime)
	nw := 0
	for _, s := range c.series {
		if n := s.windows(); n > nw {
			nw = n
		}
	}
	for c.sealedTo < nw {
		c.seal(c.sealedTo)
		c.sealedTo++
	}
	c.finished = true

	set := &Set{
		Format:  SeriesFormat,
		Version: SeriesVersion,
		Window:  c.cfg.Window,
		Windows: nw,
	}
	for _, key := range c.sortedKeys() {
		set.Series = append(set.Series, Series{
			Name:   key,
			Values: c.series[key].export(nw, c.cfg.Window),
		})
	}
	return set
}

// Alerts returns the alert records in decision order (valid after Finish,
// or at any point during a live run for the windows sealed so far).
func (c *Collector) Alerts() []Alert { return c.alerts }
