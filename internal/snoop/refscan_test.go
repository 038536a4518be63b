package snoop

import (
	"encoding/binary"
	"time"
)

// refScanner is the test-only reference decoder BatchScanner is checked
// against: a record-at-a-time transcription of the format (16-byte file
// header, then a 24-byte record header plus payload per record) over a
// complete in-memory capture, with none of the block, carry, shrink or
// filter machinery. It returns the records decoded before the stream
// ended or died, the byte offset reached, and the errClass bucket of the
// terminal state. The offset follows the BatchScanner contract: the
// capture length after a clean end or a truncation, the start of the
// offending record header after a framing error, and 16 after a
// rejected file header. Record payloads alias data.
func refScanner(data []byte) (recs []Record, off int64, class string) {
	if len(data) < 16 {
		return nil, int64(len(data)), "truncated"
	}
	if _, err := parseFileHeader((*[16]byte)(data[:16])); err != nil {
		return nil, 16, errClass(err)
	}
	pos := 16
	for {
		switch left := len(data) - pos; {
		case left == 0:
			return recs, int64(pos), "clean"
		case left < 24:
			return recs, int64(len(data)), "truncated"
		}
		h := data[pos : pos+24]
		orig := binary.BigEndian.Uint32(h[0:4])
		incl := binary.BigEndian.Uint32(h[4:8])
		if incl > maxRecord {
			return recs, int64(pos), "error"
		}
		if incl > orig {
			return recs, int64(pos), "bad-framing"
		}
		end := pos + 24 + int(incl)
		if end > len(data) {
			return recs, int64(len(data)), "truncated"
		}
		recs = append(recs, Record{
			OriginalLength:  orig,
			Flags:           binary.BigEndian.Uint32(h[8:12]),
			CumulativeDrops: binary.BigEndian.Uint32(h[12:16]),
			Timestamp:       time.UnixMicro(int64(binary.BigEndian.Uint64(h[16:24])) - btsnoopEpochDelta).UTC(),
			Data:            data[pos+24 : end],
		})
		pos = end
	}
}
