package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Checkpoint file format: the serialized vertex state of one propagation
// iteration, written every K iterations so a failed multi-iteration run can
// resume from the last checkpoint instead of iteration zero (§F, Figure 10's
// fault-tolerance experiments). Little-endian, mirroring the partition and
// manifest formats:
//
//	magic     uint32  'S','R','F','C'
//	version   uint32  1
//	iteration uint32  iteration the state belongs to (state *after* it ran)
//	length    uint32  payload bytes
//	crc32     uint32  IEEE CRC of the payload
//	payload   [length]byte (caller-defined state encoding)
const (
	ckptMagic   = uint32('S') | uint32('R')<<8 | uint32('F')<<16 | uint32('C')<<24
	ckptVersion = 1
)

// WriteCheckpoint writes one checkpoint envelope. The payload encoding is the
// caller's (propagation serializes its State); the envelope pins iteration
// identity and integrity so a torn or stale file is rejected at restore time.
func WriteCheckpoint(w io.Writer, iteration int, payload []byte) error {
	if iteration < 0 {
		return fmt.Errorf("storage: checkpoint iteration %d is negative", iteration)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []uint32{ckptMagic, ckptVersion, uint32(iteration), uint32(len(payload)), crc32.ChecksumIEEE(payload)}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if _, err := bw.Write(payload); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCheckpoint decodes a checkpoint envelope, returning the iteration it
// belongs to and the caller-encoded payload. Corruption — wrong magic,
// truncated payload, checksum mismatch — is an error, never a silent
// partial restore.
func ReadCheckpoint(r io.Reader) (iteration int, payload []byte, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [5]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return 0, nil, fmt.Errorf("storage: reading checkpoint header: %w", err)
	}
	if hdr[0] != ckptMagic {
		return 0, nil, fmt.Errorf("storage: bad checkpoint magic %#x", hdr[0])
	}
	if hdr[1] != ckptVersion {
		return 0, nil, fmt.Errorf("storage: unsupported checkpoint version %d", hdr[1])
	}
	const maxPayload = 1 << 31
	if hdr[3] > maxPayload {
		return 0, nil, fmt.Errorf("storage: implausible checkpoint payload of %d bytes", hdr[3])
	}
	// The buffer grows as payload bytes actually arrive, so a header lying
	// about its length fails after at most one slab of over-allocation.
	var buf bytes.Buffer
	buf.Grow(int(min(hdr[3], 1<<20)))
	if n, err := io.CopyN(&buf, br, int64(hdr[3])); err != nil {
		if err == io.EOF && n > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("storage: reading checkpoint payload: %w", err)
	}
	payload = buf.Bytes()
	if got := crc32.ChecksumIEEE(payload); got != hdr[4] {
		return 0, nil, fmt.Errorf("storage: checkpoint payload checksum %#x does not match header %#x", got, hdr[4])
	}
	return int(hdr[2]), payload, nil
}
