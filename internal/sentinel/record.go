package sentinel

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/bt"
	"repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/tsdb"
)

// A finding is stored in the findings series as one fixed 48-byte
// record, not as its JSONL line: /query renders the record back with
// appendFinding, the shard writer's encoder, so a reader gets the line
// the daemon emitted. The stream id and the emission stamp are the tsdb
// frame's key and timestamp and are not repeated. Layout, little-endian:
//
//	[0]      magic 0xF1
//	[1]      kind code (findingKinds)
//	[2]      key-exposure source code (keySources; 0 = none)
//	[3]      disconnect reason (hci.Status)
//	[4]      previous key type
//	[5]      new key type
//	[6:8]    connection handle
//	[8:14]   peer BD_ADDR
//	[14:16]  zero
//	[16:24]  seq
//	[24:32]  frame
//	[32:40]  capture time, unix seconds
//	[40:44]  capture time, nanoseconds within the second
//	[44:48]  zero
//
// Frames written before records existed hold the JSON line itself,
// which starts with '{'; renderStored serves those verbatim, so no
// segment-version bump was needed (the dispatch decodeCkptFrame uses).
const (
	findingRecordMagic = 0xF1
	// findingRecordSize is the size of one stored finding record.
	findingRecordSize = 48
)

// findingKinds and keySources map record codes to the strings they
// stand for; code 0 is no kind (invalid) and no source. A kind or
// source without a code cannot be stored, and TestFindingRecordRoundTrip
// fails until it has one.
var (
	findingKinds = [...]string{
		1: forensics.FindingKeyExposure,
		2: forensics.FindingPageBlocking,
		3: forensics.FindingStalledAuthTimeout,
		4: forensics.FindingSilentRepairing,
		5: forensics.FindingSilentKeyChange,
		6: forensics.FindingKeyTypeDowngrade,
	}
	keySources = [...]string{
		0: "",
		1: hci.OpLinkKeyRequestReply.String(),
		2: hci.EvLinkKeyNotification.String(),
	}
)

// codeOf returns s's code in table, or 0 when s has none.
func codeOf(table []string, s string) byte {
	for i := 1; i < len(table); i++ {
		if table[i] == s {
			return byte(i)
		}
	}
	return 0
}

// appendFindingRecord appends ev's record, as the daemon stores it, to
// b. It reports false, and appends nothing, for a finding the record
// cannot carry: a rendered Detail, a kind or source without a code, or
// a Finding.Frame that differs from the event's. The live detector
// emits none of these.
func appendFindingRecord(b []byte, ev *forensics.Event) ([]byte, bool) {
	f := &ev.Finding
	kind := codeOf(findingKinds[:], f.Kind)
	src := codeOf(keySources[:], f.Source)
	if kind == 0 || (src == 0 && f.Source != "") || f.Detail != "" || f.Frame != ev.Frame {
		return b, false
	}
	var r [findingRecordSize]byte
	r[0] = findingRecordMagic
	r[1] = kind
	r[2] = src
	r[3] = byte(f.Reason)
	r[4] = byte(f.PrevKeyType)
	r[5] = byte(f.KeyType)
	binary.LittleEndian.PutUint16(r[6:8], uint16(f.Handle))
	copy(r[8:14], f.Peer[:])
	binary.LittleEndian.PutUint64(r[16:24], ev.Seq)
	binary.LittleEndian.PutUint64(r[24:32], uint64(ev.Frame))
	binary.LittleEndian.PutUint64(r[32:40], uint64(ev.Time.Unix()))
	binary.LittleEndian.PutUint32(r[40:44], uint32(ev.Time.Nanosecond()))
	return append(b, r[:]...), true
}

// decodeFindingRecord fills ev from a record and reports whether r is
// one: exactly findingRecordSize bytes, the magic, a kind code, a source
// code, zero padding and a nanosecond field below one second. Whatever
// it accepts, appendFindingRecord encodes back to r.
func decodeFindingRecord(r []byte, ev *forensics.Event) bool {
	if len(r) != findingRecordSize || r[0] != findingRecordMagic ||
		r[1] == 0 || int(r[1]) >= len(findingKinds) || int(r[2]) >= len(keySources) ||
		r[14]|r[15]|r[44]|r[45]|r[46]|r[47] != 0 {
		return false
	}
	nsec := binary.LittleEndian.Uint32(r[40:44])
	if nsec >= uint32(time.Second) {
		return false
	}
	frame := int(binary.LittleEndian.Uint64(r[24:32]))
	*ev = forensics.Event{
		Seq:   binary.LittleEndian.Uint64(r[16:24]),
		Frame: frame,
		Time:  time.Unix(int64(binary.LittleEndian.Uint64(r[32:40])), int64(nsec)),
		Finding: forensics.Finding{
			Kind:        findingKinds[r[1]],
			Frame:       frame,
			Peer:        bt.BDADDR(r[8:14]),
			Source:      keySources[r[2]],
			Handle:      bt.ConnHandle(binary.LittleEndian.Uint16(r[6:8])),
			Reason:      hci.Status(r[3]),
			PrevKeyType: bt.LinkKeyType(r[4]),
			KeyType:     bt.LinkKeyType(r[5]),
		},
	}
	return true
}

// renderStored appends the JSON object a stored event frame stands for
// to b: a finding record rendered by appendFinding, with the frame's
// key as the stream and its timestamp as the emission stamp, or any
// other frame (a stream-end line, a finding line from an older store)
// verbatim.
func renderStored(b []byte, fr tsdb.Frame) ([]byte, error) {
	if len(fr.Data) == 0 || fr.Data[0] != findingRecordMagic {
		return append(b, fr.Data...), nil
	}
	var ev forensics.Event
	if !decodeFindingRecord(fr.Data, &ev) {
		return b, fmt.Errorf("corrupt finding record (%d bytes)", len(fr.Data))
	}
	var ts [48]byte
	return appendFinding(b, fr.Key, appendStamp(ts[:0], fr.TS), &ev), nil
}
