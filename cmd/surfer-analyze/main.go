// surfer-analyze turns raw event streams (surfer-run -events /
// surfer-bench -events) into critical-path reports, diffs two runs, and
// gates bench reports against a baseline.
//
// Usage:
//
//	surfer-analyze -trace run.events [-json]
//	surfer-analyze -trace run.events -breakdown
//	surfer-analyze -trace trace.json
//	surfer-analyze -autoscale run.events [-json]
//	surfer-analyze -diff a.events b.events [-json]
//	surfer-analyze -compare old.json new.json [-threshold 5%]
//
// -trace reconstructs the causal DAG from one stream, extracts the
// critical path, and attributes every second of the makespan to a blame
// category (see docs/METRICS.md §6); -breakdown prints the job → stage →
// machine table (trace.Summarize) instead. A Chrome trace_event export
// (surfer-run -trace) is validated and summarized; a malformed file of
// either format exits nonzero. -diff analyzes two streams of the same
// workload and reports per-stage / per-category deltas plus the regressing
// links and machines. -compare checks a surfer-bench -json report against a
// baseline and exits nonzero when any gated metric regressed past the
// threshold, which makes it usable as a CI gate.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/analyze"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("surfer-analyze: ")
	var (
		traceIn   = flag.String("trace", "", "raw event stream to analyze (from surfer-run -events), or a Chrome trace export to validate (from surfer-run -trace)")
		breakdown = flag.Bool("breakdown", false, "with -trace: print the job→stage→machine accounting table instead of the critical-path report (raw event streams only)")
		doDiff    = flag.Bool("diff", false, "diff two raw event streams given as positional args: A.events B.events")
		doCompare = flag.Bool("compare", false, "gate a bench report against a baseline, positional args: old.json new.json")
		threshold = flag.String("threshold", "5%", "regression threshold for -compare (percent; trailing % optional)")
		autoscale = flag.String("autoscale", "", "raw event stream (with topology header) to run the utilization-driven autoscaling policy on; prints the recommended joins/drains and, with -json, a fault-schedule file ready for surfer-run -fail")
		asJSON    = flag.Bool("json", false, "emit the report as JSON instead of text")
	)
	flag.Parse()
	// The issue-standard invocation puts flags after the positional files
	// ("-compare old.json new.json -threshold 5%"); stdlib flag stops at the
	// first positional, so re-parse interleaved flags ourselves.
	var args []string
	for rest := flag.Args(); len(rest) > 0; {
		if strings.HasPrefix(rest[0], "-") {
			flag.CommandLine.Parse(rest)
			rest = flag.CommandLine.Args()
			continue
		}
		args = append(args, rest[0])
		rest = rest[1:]
	}

	switch {
	case *doCompare:
		if len(args) != 2 {
			log.Fatal("-compare wants two positional args: old.json new.json")
		}
		pct, err := parseThreshold(*threshold)
		if err != nil {
			log.Fatal(err)
		}
		runCompare(args[0], args[1], pct)
	case *doDiff:
		if len(args) != 2 {
			log.Fatal("-diff wants two positional args: A.events B.events")
		}
		a := analyzeStream(args[0], loadStream(args[0]))
		d := analyze.Diff(a, analyzeStream(args[1], loadStream(args[1])))
		if *asJSON {
			must(analyze.WriteDiffJSON(os.Stdout, d))
		} else {
			must(analyze.WriteDiffText(os.Stdout, d))
		}
	case *autoscale != "":
		runAutoscale(*autoscale, *asJSON)
	case *traceIn != "":
		runTrace(*traceIn, *breakdown, *asJSON)
	default:
		log.Fatal("nothing to do: want -trace f, -autoscale f, -diff a b, or -compare old new")
	}
}

// runAutoscale applies the default autoscaling policy to an event stream.
// With -json it emits the plan's fault-schedule file (the format surfer-run
// -fail consumes), so recommendation → replay is one pipe.
func runAutoscale(path string, asJSON bool) {
	s := loadStream(path)
	if s.Topo == nil {
		log.Fatalf("%s: no topology header (write the stream with surfer-run -events, not surfer-bench)", path)
	}
	topo := cluster.NewTopologyFromMatrix(s.Topo.Name, s.Topo.Bandwidth)
	plan, err := analyze.Autoscale(s.Events, topo, analyze.AutoscalePolicy{})
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		must(enc.Encode(plan.File()))
		return
	}
	fmt.Printf("autoscale: %d window(s), %d join(s), %d drain(s) recommended\n",
		len(plan.Windows), len(plan.Joins), len(plan.Drains))
	for _, w := range plan.Windows {
		state := ""
		if w.Saturated {
			state = "  SATURATED"
		} else if w.Idle {
			state = "  idle"
		}
		fmt.Printf("  %-12s [%8.4f, %8.4f]  max level-0 util %5.1f%%%s\n",
			w.Job, w.Start, w.End, 100*w.MaxLevel0Util, state)
	}
	for _, j := range plan.Joins {
		fmt.Printf("  join machine %d at %.4f\n", j.Machine, j.At)
	}
	for _, d := range plan.Drains {
		fmt.Printf("  drain machine %d at %.4f (deadline %.4f)\n", d.Machine, d.At, d.Deadline)
	}
}

// runTrace analyzes the raw event stream in path — or, with breakdown,
// prints its job → stage → machine table — and validates a Chrome export.
func runTrace(path string, breakdown, asJSON bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	s, err := trace.ReadEvents(bytes.NewReader(data))
	if errors.Is(err, trace.ErrNotStream) {
		if breakdown {
			log.Fatalf("%s: -breakdown needs a raw event stream (surfer-run -events); Chrome exports drop the event fields it is computed from", path)
		}
		checkChrome(path, data)
		return
	}
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	if breakdown {
		printBreakdown(path, s)
		return
	}
	r := analyzeStream(path, s)
	if asJSON {
		must(analyze.WriteJSON(os.Stdout, r))
	} else {
		must(analyze.WriteText(os.Stdout, r))
	}
}

// loadStream reads and validates the raw event stream in path.
func loadStream(path string) *trace.Stream {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	s, err := trace.ReadEvents(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return s
}

// analyzeStream runs the critical-path analysis. A topology header in the
// stream enables the link-utilization section; without one the report
// simply omits it.
func analyzeStream(path string, s *trace.Stream) *analyze.Report {
	var topo *cluster.Topology
	if s.Topo != nil {
		topo = cluster.NewTopologyFromMatrix(s.Topo.Name, s.Topo.Bandwidth)
	}
	r, err := analyze.Analyze(s.Events, topo)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return r
}

// runCompare loads two bench reports and exits 1 when any gated metric in
// new exceeds old by more than pct percent.
func runCompare(oldPath, newPath string, pct float64) {
	old, err := bench.LoadReport(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	cur, err := bench.LoadReport(newPath)
	if err != nil {
		log.Fatal(err)
	}
	regs := bench.Compare(old, cur, pct)
	if len(regs) == 0 {
		fmt.Printf("compare: OK (%d entries, threshold %.1f%%)\n", len(cur.Entries), pct)
		return
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s/%s %s: %.6f -> %.6f (+%.1f%%)\n",
			r.Experiment, r.Case, r.Metric, r.Old, r.New, r.Pct)
	}
	fmt.Printf("compare: %d regression(s) past %.1f%% threshold\n", len(regs), pct)
	os.Exit(1)
}

// parseThreshold accepts "5", "5%", "2.5%".
func parseThreshold(s string) (float64, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad -threshold %q (want a percentage like 5%%)", s)
	}
	return v, nil
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
