package storage

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func TestCheckpointRoundTrip(t *testing.T) {
	payload := []byte("per-vertex state encoded by the propagation layer")
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, 7, payload); err != nil {
		t.Fatal(err)
	}
	iter, got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if iter != 7 {
		t.Fatalf("iteration = %d, want 7", iter)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

func TestCheckpointEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	iter, got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if iter != 0 || len(got) != 0 {
		t.Fatalf("iter=%d payload=%q", iter, got)
	}
}

func TestCheckpointRejectsNegativeIteration(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, -1, nil); err == nil {
		t.Fatal("expected error for negative iteration")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, 3, []byte("state bytes")); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Garbage header.
	if _, _, err := ReadCheckpoint(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated payload.
	if _, _, err := ReadCheckpoint(bytes.NewReader(good[:len(good)-4])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	// Flipped payload bit: checksum must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted payload: err = %v, want checksum error", err)
	}
}

// TestFailoverReplicaExhaustionNamesPartition pins the operator-facing error
// of the replica-exhaustion path: when every holder of a partition is dead,
// the error must say which partition is unrecoverable.
func TestFailoverReplicaExhaustionNamesPartition(t *testing.T) {
	r := &Replicas{Machines: [][]cluster.MachineID{
		{0, 1, 2},
		{1, 2, 3},
	}}
	dead := map[cluster.MachineID]bool{1: true, 2: true, 3: true}
	// Partition 0 still has machine 0: failover succeeds.
	if m, err := r.Failover(0, dead); err != nil || m != 0 {
		t.Fatalf("partition 0 failover = %d, %v", m, err)
	}
	// Partition 1 lost every holder: the error must name it.
	_, err := r.Failover(1, dead)
	if err == nil {
		t.Fatal("expected replica-exhaustion error")
	}
	if !strings.Contains(err.Error(), "partition 1") {
		t.Fatalf("error %q does not name partition 1", err)
	}
	if !strings.Contains(err.Error(), "3 replicas") {
		t.Fatalf("error %q does not state the replica count", err)
	}
}

// oversizedCheckpoint is a bare 20-byte checkpoint header whose length word
// claims 1<<31 payload bytes that never follow.
var oversizedCheckpoint = []byte("SRFC\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00")

// TestReadCheckpointAllocatesByInput: a header that lies about its payload
// length must fail without allocating what it claims.
func TestReadCheckpointAllocatesByInput(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadCheckpoint(bytes.NewReader(oversizedCheckpoint))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
		t.Fatalf("reading a 20-byte header allocated %d MB", alloc>>20)
	}
}
