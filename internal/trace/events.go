package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Raw event-stream export: unlike the Chrome export (a rendering), this
// format round-trips the exact Event stream — Seq/Cause edges included — so
// surfer-analyze can rebuild the causal DAG and surfer-analyze -breakdown can
// recompute the job→stage→machine hierarchy from a file. The header embeds
// the cluster's bandwidth matrix, which is what the analyzer's
// bisection-level link report needs; a trace therefore carries everything
// required to attribute its own makespan.

// StreamFormat and StreamVersion identify the raw trace file format. The
// version bumps whenever Event gains fields analysis depends on.
const (
	StreamFormat  = "surfer-trace-events"
	StreamVersion = 1
)

// ErrNotStream reports well-formed JSON that is not a raw event stream —
// a Chrome export, say.
var ErrNotStream = errors.New("trace: not a raw event trace")

// MaxMachines bounds the machine ids of a stream without a topology header.
// No simulated cluster comes near it; it caps what a reader allocates for
// per-machine tables of a hostile file.
const MaxMachines = 1 << 16

// TopoInfo is the topology header of a raw trace: enough of the cluster
// model to rebuild the machine graph (per-pair bandwidth) without the
// generating process.
type TopoInfo struct {
	Name     string `json:"name"`
	Machines int    `json:"machines"`
	// Bandwidth is the full pairwise bandwidth matrix in bytes/second
	// (diagonal = loopback), row-major [src][dst].
	Bandwidth [][]float64 `json:"bandwidth"`
}

// Stream is a parsed raw trace file.
type Stream struct {
	Format  string    `json:"format"`
	Version int       `json:"version"`
	Topo    *TopoInfo `json:"topology,omitempty"`
	Events  []Event   `json:"events"`
}

// WriteEvents writes the event stream (with an optional topology header) as
// raw trace JSON: one event per line, struct-driven field order, so
// identical streams produce byte-identical files — the same determinism
// guarantee the Chrome export carries.
func WriteEvents(w io.Writer, topo *TopoInfo, events []Event) error {
	if _, err := fmt.Fprintf(w, "{\"format\":%q,\"version\":%d", StreamFormat, StreamVersion); err != nil {
		return err
	}
	if topo != nil {
		hdr, err := json.Marshal(topo)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(w, ",\"topology\":"); err != nil {
			return err
		}
		if _, err := w.Write(hdr); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, ",\"events\":[\n"); err != nil {
		return err
	}
	for i := range events {
		line, err := json.Marshal(&events[i])
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// ReadEvents parses a raw trace file and validates its envelope: the format
// marker, a supported version, a consistent topology header, and the events
// (CheckEvents) with machine ids bounded by the header (MaxMachines without
// one).
func ReadEvents(r io.Reader) (*Stream, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var s Stream
	if err := json.Unmarshal(data, &s); err != nil {
		// A cut-off file fails at the very end of the input; name the real
		// problem instead of pointing at the JSON grammar.
		var syn *json.SyntaxError
		if errors.As(err, &syn) && syn.Offset >= int64(len(data)) {
			return nil, fmt.Errorf("trace: raw trace file is truncated after %d bytes (the capture was interrupted or the copy is partial): %w", len(data), err)
		}
		return nil, fmt.Errorf("trace: invalid raw trace JSON: %w", err)
	}
	if s.Format != StreamFormat {
		return nil, fmt.Errorf("%w (format %q, want %q — Chrome exports cannot be analyzed, re-capture with -events)", ErrNotStream, s.Format, StreamFormat)
	}
	if s.Version != StreamVersion {
		return nil, fmt.Errorf("trace: unsupported raw trace version %d (want %d)", s.Version, StreamVersion)
	}
	limit := MaxMachines
	if s.Topo != nil {
		if s.Topo.Machines != len(s.Topo.Bandwidth) {
			return nil, fmt.Errorf("trace: topology header claims %d machines but carries a %d-row bandwidth matrix", s.Topo.Machines, len(s.Topo.Bandwidth))
		}
		for i, row := range s.Topo.Bandwidth {
			if len(row) != s.Topo.Machines {
				return nil, fmt.Errorf("trace: bandwidth matrix row %d has %d entries, want %d", i, len(row), s.Topo.Machines)
			}
		}
		limit = s.Topo.Machines
	}
	if err := CheckEvents(s.Events, limit); err != nil {
		return nil, err
	}
	return &s, nil
}

// CheckEvents validates what stream readers index by: Seq numbering
// (Seq == stream position, Cause < Seq) so DAG reconstruction can index
// events directly, and machine ids (Machine, Dst) in [None, machines) so
// per-machine folds can.
func CheckEvents(events []Event, machines int) error {
	for i := range events {
		ev := &events[i]
		if ev.Seq != i {
			return fmt.Errorf("trace: event %d carries seq %d; stream is reordered or truncated", i, ev.Seq)
		}
		if ev.Cause < None || ev.Cause >= ev.Seq {
			return fmt.Errorf("trace: event %d has acausal cause %d", i, ev.Cause)
		}
		if ev.Machine < None || ev.Machine >= machines || ev.Dst < None || ev.Dst >= machines {
			return fmt.Errorf("trace: event %d names machine %d→%d outside [%d, %d)", i, ev.Machine, ev.Dst, None, machines)
		}
	}
	return nil
}
