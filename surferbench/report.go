package main

import "strings"

// metricDef is a reported metric's name and unit.
type metricDef struct{ name, unit string }

// reported is one metric as printed.
type reported struct {
	metricDef
	value float64
}

// endToEnd are the metrics of an untraced run, in print order. Host times
// are medians over the run's set-ups or repetitions; virtual metrics repeat
// exactly in every repetition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"observe_s", "s"},
	{"virtual_response_s", "s"},
	{"virtual_machine_s", "s"},
	{"virtual_network_bytes", "B"},
	{"virtual_disk_bytes", "B"},
	{"virtual_job_p50_s", "s"},
	{"virtual_job_p90_s", "s"},
}

// perLayer are the metrics of a traced run (see summary.perLayer); a layer
// a workload does not call reads 0. How each is derived follows from its
// name (see layerValue).
var perLayer = []metricDef{
	{"graph.load_s", "s"}, {"graph.load_alloc_mb", "MB"}, {"graph.edges", "count"},
	{"partition.s", "s"}, {"partition.alloc_mb", "MB"}, {"partition.allocs", "count"},
	{"partition.cut_edges", "count"}, {"partition.inner_edge_ratio", "1"},
	{"storage.s", "s"}, {"storage.alloc_mb", "MB"}, {"storage.bytes", "B"},
	{"propagation.s", "s"}, {"propagation.alloc_mb", "MB"}, {"propagation.allocs", "count"},
	{"propagation.jobs", "count"},
	{"engine.s", "s"}, {"engine.alloc_mb", "MB"}, {"engine.tasks", "count"},
	{"mapreduce.s", "s"}, {"mapreduce.alloc_mb", "MB"}, {"mapreduce.allocs", "count"},
	{"mapreduce.tasks", "count"},
	{"jobsvc.planner_s", "s"}, {"jobsvc.decode_s", "s"}, {"jobsvc.plan_s", "s"}, {"jobsvc.run_s", "s"},
	{"jobsvc.alloc_mb", "MB"}, {"jobsvc.allocs", "count"}, {"jobsvc.jobs_finished", "count"},
	{"jobsvc.preemptions", "count"}, {"jobsvc.transfer_drops", "count"},
	{"jobsvc.transfer_retries", "count"}, {"jobsvc.tasks", "count"},
	{"fault.decode_s", "s"},
	{"trace.events", "count"}, {"trace.bytes", "B"}, {"trace.write_s", "s"}, {"trace.read_s", "s"},
	{"trace.alloc_mb", "MB"},
	{"metrics.fold_s", "s"}, {"metrics.alloc_mb", "MB"}, {"metrics.series", "count"},
	{"metrics.windows", "count"},
	{"analyze.s", "s"}, {"analyze.alloc_mb", "MB"}, {"analyze.path_steps", "count"},
	{"gc.cycles", "count"}, {"gc.cpu_s", "s"}, {"gc.pause_s", "s"},
	{"setup.self_s", "s"}, {"run.self_s", "s"}, {"observe.self_s", "s"},
	{"setup.coverage", "1"}, {"run.coverage", "1"}, {"observe.coverage", "1"},
	{"overhead.setup_s", "s"}, {"overhead.run_s", "s"}, {"overhead.observe_s", "s"},
	{"process.peak_rss_mb", "MB"},
}

// phaseSeconds is the host seconds sample x spent in phase p, and whether
// x measured that phase at all.
func (x sample) phaseSeconds(p int) (float64, bool) {
	switch {
	case x.res == nil:
		return x.setup, p == phaseSetup
	case p == phaseRun:
		return x.res.run, true
	default:
		return x.res.observe, p == phaseObserve
	}
}

// phaseMedian is the median host seconds of phase p over the samples that
// were (or were not) traced.
func (s *summary) phaseMedian(p int, traced bool) float64 {
	var xs []float64
	for _, x := range s.samples {
		if v, ok := x.phaseSeconds(p); ok && x.traced == traced {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// endToEnd assembles the untraced run's metrics. Virtual metrics are equal
// in every repetition that passed the drift check, so the first one's stand.
func (s *summary) endToEnd() []reported {
	out := []reported{
		{endToEnd[0], s.phaseMedian(phaseSetup, false)},
		{endToEnd[1], s.phaseMedian(phaseRun, false)},
		{endToEnd[2], s.phaseMedian(phaseObserve, false)},
	}
	for _, x := range s.samples {
		if x.res != nil {
			for i, v := range x.res.virtual {
				out = append(out, reported{endToEnd[3+i], v.value})
			}
			break
		}
	}
	return out
}

// perLayer assembles the traced run's metrics. Each is the median over the
// traced set-ups plus the median over the traced repetitions, so a layer
// called in only one of them reads as that one's median, and gc.* covers
// one set-up and one repetition. The overhead of tracing is traced minus
// untraced phase medians. process.peak_rss_mb is the whole run's peak
// resident set: it moves with where garbage collections land in the
// partitioner's allocation churn (300–540 MB between identical set-ups on
// the social workload), too much to bound as an end-to-end metric.
func (s *summary) perLayer() []reported {
	out := make([]reported, 0, len(perLayer))
	for _, def := range perLayer {
		var v float64
		if phase, ok := strings.CutPrefix(def.name, "overhead."); ok {
			p := phaseIndex(strings.TrimSuffix(phase, "_s"))
			v = s.phaseMedian(p, true) - s.phaseMedian(p, false)
		} else if def.name == "process.peak_rss_mb" {
			v = peakRSSMB()
		} else {
			var setups, reps []float64
			for _, x := range s.samples {
				if !x.traced {
					continue
				}
				val := layerValue(def.name, x.res, s.tracer.runSpans(x.run))
				if x.res == nil {
					setups = append(setups, val)
				} else {
					reps = append(reps, val)
				}
			}
			v = median(setups) + median(reps)
		}
		out = append(out, reported{def, v})
	}
	return out
}

func phaseIndex(name string) int {
	for p, n := range phaseNames {
		if n == name {
			return p
		}
	}
	return -1
}

// layerValue derives one per-layer metric of a traced cycle from its spans
// and counters:
//
//   - <phase>.self_s and <phase>.coverage: the phase span's self time, and
//     the share of the phase its layer spans cover;
//   - gc.*: runtime deltas summed over the phase spans;
//   - <layer>…alloc_mb and <layer>.allocs: heap bytes (MB) and objects
//     allocated inside the spans of that layer;
//   - other names ending in "s": self seconds of the spans feeding it;
//   - anything else: the cycle's exact counter of that name.
func layerValue(name string, res *result, spans []span) float64 {
	layer, rest, _ := strings.Cut(name, ".")
	if p := phaseIndex(layer); p >= 0 {
		for _, sp := range spans {
			if sp.Parent == noSpan && sp.Name == layer {
				if rest == "coverage" {
					return (sp.dur() - sp.Self) / sp.dur()
				}
				return sp.Self
			}
		}
		return 0
	}
	v := 0.0
	switch {
	case layer == "gc":
		for _, sp := range spans {
			if sp.Parent != noSpan {
				continue
			}
			switch rest {
			case "cycles":
				v += float64(sp.GCCycles)
			case "cpu_s":
				v += sp.GCCPU
			case "pause_s":
				v += sp.GCPause
			}
		}
	case strings.HasSuffix(rest, "alloc_mb"), rest == "allocs":
		for _, sp := range spans {
			if strings.HasPrefix(sp.Metric, layer+".") {
				if rest == "allocs" {
					v += float64(sp.Allocs)
				} else {
					v += float64(sp.AllocBytes) / 1e6
				}
			}
		}
	case rest == "s" || strings.HasSuffix(rest, "_s"):
		for _, sp := range spans {
			if sp.Metric == name {
				v += sp.Self
			}
		}
	case res != nil:
		for _, c := range res.counts {
			if c.name == name {
				v = c.value
			}
		}
	}
	return v
}
