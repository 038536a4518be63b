package main

import (
	"encoding/binary"
	"fmt"
	"os"
)

// -follow checkpoint file: a tiny sidecar that lets a restarted hcidump
// pick up a live capture exactly where the previous run left off —
// scan position plus the full incremental detector state — so findings
// that straddle the restart are still detected and nothing before the
// checkpoint is re-reported as new.
//
// Layout (little-endian):
//
//	magic   [8]byte  "blapckp1"
//	version u8       (1; bumped on any layout change)
//	datalink u32     btsnoop header datalink of the capture
//	offset  i64      byte offset the scanner stopped at
//	frame   i64      1-based frame count already delivered
//	statelen u32
//	state   []byte   forensics.Detector SnapshotState (itself versioned)
const (
	ckpMagic   = "blapckp1"
	ckpVersion = 1
)

// followCheckpoint is the decoded sidecar contents.
type followCheckpoint struct {
	datalink uint32
	offset   int64
	frame    int64
	state    []byte
}

// readFollowCheckpoint loads path, returning (nil, nil) when the file
// does not exist — a fresh follow, not an error.
func readFollowCheckpoint(path string) (*followCheckpoint, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	const hdr = len(ckpMagic) + 1 + 4 + 8 + 8 + 4
	if len(data) < hdr || string(data[:len(ckpMagic)]) != ckpMagic {
		return nil, fmt.Errorf("%s: not a follow checkpoint", path)
	}
	p := data[len(ckpMagic):]
	if p[0] != ckpVersion {
		return nil, fmt.Errorf("%s: checkpoint version %d, supported %d", path, p[0], ckpVersion)
	}
	c := &followCheckpoint{
		datalink: binary.LittleEndian.Uint32(p[1:]),
		offset:   int64(binary.LittleEndian.Uint64(p[5:])),
		frame:    int64(binary.LittleEndian.Uint64(p[13:])),
	}
	n := binary.LittleEndian.Uint32(p[21:])
	if int(n) != len(p[25:]) {
		return nil, fmt.Errorf("%s: corrupt checkpoint: state length %d, %d bytes present", path, n, len(p[25:]))
	}
	c.state = p[25:]
	return c, nil
}

// writeFollowCheckpoint atomically replaces path so a crash never
// leaves a truncated sidecar behind: the temp file is written, synced
// to media and closed, every error checked, before the rename. Without
// the sync a machine crash could keep the rename but lose the data,
// leaving an empty sidecar that the next -follow -checkpoint rejects.
func writeFollowCheckpoint(path string, c *followCheckpoint) error {
	b := make([]byte, 0, len(ckpMagic)+25+len(c.state))
	b = append(b, ckpMagic...)
	b = append(b, ckpVersion)
	b = binary.LittleEndian.AppendUint32(b, c.datalink)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.offset))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.frame))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.state)))
	b = append(b, c.state...)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
