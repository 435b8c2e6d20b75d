package main

import (
	"encoding/json"
	"fmt"
	"log"
	"strings"

	"repro/internal/trace"
)

// The -trace input is sniffed: a raw event stream (surfer-run -events) is
// analyzed, a Chrome trace_event export (-trace) — a rendering for
// chrome://tracing that drops the causal edges — is only validated and
// summarized. Either way a malformed file exits nonzero.

// printBreakdown prints a validated raw stream's header summary and its
// Summarize hierarchy as text.
func printBreakdown(path string, s *trace.Stream) {
	var maxEnd float64
	for i := range s.Events {
		maxEnd = max(maxEnd, s.Events[i].Time, s.Events[i].End)
	}
	fmt.Printf("%s: OK (raw event stream v%d)\n", path, s.Version)
	fmt.Printf("events:    %d\n", len(s.Events))
	if s.Topo != nil {
		fmt.Printf("topology:  %s (%d machines)\n", s.Topo.Name, s.Topo.Machines)
	}
	fmt.Printf("time span: %.3f ms virtual\n\n", maxEnd*1e3)
	b := trace.Summarize(s.Events)
	fmt.Printf("breakdown (job -> stage -> machine)\n")
	for _, jb := range b.Jobs {
		fmt.Printf("job %-24s [%10.6f .. %10.6f]\n", jb.Name, jb.Begin, jb.End)
		for _, sb := range jb.Stages {
			fmt.Printf("  stage %-20s [%10.6f .. %10.6f]\n", sb.Name, sb.Begin, sb.End)
			for _, mb := range sb.Machines {
				fmt.Printf("    m%-3d compute=%.6fs tasks=%d egress=%dB/%.6fs ingress=%dB/%.6fs stall=%.6fs incast=%.6fs",
					mb.Machine, mb.ComputeSeconds, mb.TasksRun,
					mb.EgressBytes, mb.EgressBusySeconds,
					mb.IngressBytes, mb.IngressBusySeconds,
					mb.StallSeconds, mb.IncastStallSeconds)
				if mb.Retries > 0 {
					fmt.Printf(" retries=%d", mb.Retries)
				}
				if mb.TasksLost > 0 {
					fmt.Printf(" lost=%d", mb.TasksLost)
				}
				if mb.TransferDrops > 0 {
					fmt.Printf(" drops=%d dropstall=%.6fs", mb.TransferDrops, mb.DropStallSeconds)
				}
				if mb.TransferRetries > 0 {
					fmt.Printf(" xfer-retries=%d", mb.TransferRetries)
				}
				if mb.Speculations > 0 {
					fmt.Printf(" speculations=%d", mb.Speculations)
				}
				if mb.Failed {
					fmt.Printf(" FAILED")
				}
				fmt.Printf("\n")
			}
		}
	}
	if b.Checkpoints > 0 {
		fmt.Printf("checkpoints: %d (%s)\n", b.Checkpoints, strings.Join(b.CheckpointJobs, ", "))
	}
	if b.Restores > 0 {
		fmt.Printf("restores:    %d (%s)\n", b.Restores, strings.Join(b.RestoreJobs, ", "))
	}
}

// checkChrome validates a Chrome trace_event export and prints its summary.
func checkChrome(path string, data []byte) {
	// Only the checked fields decode; unknown ones are ignored so the
	// format can grow.
	var tf struct {
		TraceEvents []struct {
			Name, Ph string
			Pid      int
			Ts       float64
			Dur      *float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		log.Fatalf("%s: invalid JSON: %v", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		log.Fatalf("%s: no trace events", path)
	}
	pids := map[int]bool{}
	var spans, instants, metadata int
	var maxEnd float64
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Dur == nil {
				log.Fatalf("%s: event %d (%q): complete event without dur", path, i, ev.Name)
			}
			if *ev.Dur < 0 {
				log.Fatalf("%s: event %d (%q): negative duration %v", path, i, ev.Name, *ev.Dur)
			}
			maxEnd = max(maxEnd, ev.Ts+*ev.Dur)
			spans++
		case "i":
			instants++
		case "M":
			// metadata events carry no timing
			metadata++
			continue
		default:
			log.Fatalf("%s: event %d (%q): unexpected phase %q", path, i, ev.Name, ev.Ph)
		}
		if ev.Ts < 0 {
			log.Fatalf("%s: event %d (%q): negative timestamp %v", path, i, ev.Name, ev.Ts)
		}
		pids[ev.Pid] = true
	}
	fmt.Printf("%s: OK\n", path)
	fmt.Printf("events:    %d (%d spans, %d instants, %d metadata)\n",
		len(tf.TraceEvents), spans, instants, metadata)
	fmt.Printf("processes: %d\n", len(pids))
	fmt.Printf("time span: %.3f ms virtual\n", maxEnd/1e3)
}
