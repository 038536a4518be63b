package sentinel

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/forensics"
)

// findingEvent is the reference rendering of one detector finding: the
// Event the daemon built per finding before the shard writers rendered
// bursts themselves. tss is the RFC3339Nano emission stamp, empty when
// timestamps are off.
func findingEvent(id uint64, tss string, ev forensics.Event) Event {
	return Event{
		Type:      EventFinding,
		Stream:    id,
		TS:        tss,
		Seq:       ev.Seq,
		Frame:     ev.Frame,
		Kind:      ev.Finding.Kind,
		Peer:      ev.Finding.Peer.String(),
		Detail:    ev.Finding.Detail,
		CaptureTS: ev.Time.UTC().Format(time.RFC3339Nano),
	}
}

// TestAppendFindingMatchesEventJSON pins the burst renderer to the
// reference: for randomized findings — zero and non-UTC capture times,
// years outside 0000–9999, zero Seq and Frame, empty and hostile kinds
// and details (quotes, backslashes, <, >, &, control bytes, invalid
// UTF-8, U+2028/U+2029), timestamps on and off — appendFinding must
// produce exactly json.Marshal and appendJSON of findingEvent, appended
// after existing bytes without disturbing them.
func TestAppendFindingMatchesEventJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	alphabet := []string{
		"a", "Z", "0", " ", ":", `"`, `\`, "<", ">", "&", "\n", "\r", "\t", "\b", "\f",
		"\x00", "\x1f", "\x7f", "\xff", "\xc3", "\xc3\xa9", "\u2028", "\u2029", "語", "�",
	}
	randStr := func() string {
		var b []byte
		for n := rng.Intn(12); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	zones := []*time.Location{time.UTC, time.Local, time.FixedZone("east", 5*3600+1800), time.FixedZone("west", -11*3600)}
	randTime := func() time.Time {
		switch rng.Intn(6) {
		case 0:
			return time.Time{}
		case 1:
			return time.Date(-3+rng.Intn(20000), time.Month(1+rng.Intn(12)), 1+rng.Intn(28),
				rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(1e9), zones[rng.Intn(len(zones))])
		default:
			sec := rng.Int63n(4e9)
			nsec := []int64{0, 1, 120000000, 123456789, rng.Int63n(1e9)}[rng.Intn(5)]
			return time.Unix(sec, nsec).In(zones[rng.Intn(len(zones))])
		}
	}
	randAddr := func() (a bt.BDADDR) {
		switch rng.Intn(4) {
		case 0:
		case 1:
			a = bt.BDADDR{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
		default:
			rng.Read(a[:])
		}
		return a
	}
	kinds := []string{forensics.FindingKeyExposure, forensics.FindingPageBlocking, forensics.FindingStalledAuthTimeout, ""}

	var buf, tsBuf []byte
	for i := 0; i < 5000; i++ {
		ev := forensics.Event{Time: randTime()}
		if rng.Intn(4) > 0 {
			ev.Seq = rng.Uint64() >> uint(rng.Intn(64))
		}
		if rng.Intn(4) > 0 {
			ev.Frame = int(int32(rng.Uint32()))
			ev.Finding.Frame = ev.Frame
		}
		ev.Finding.Kind = kinds[rng.Intn(len(kinds))]
		if rng.Intn(3) == 0 {
			ev.Finding.Kind = randStr()
		}
		ev.Finding.Peer = randAddr()
		if rng.Intn(4) > 0 {
			ev.Finding.Detail = randStr()
		}
		stream := rng.Uint64() >> uint(rng.Intn(64))
		var ts int64
		if rng.Intn(2) == 0 {
			ts = time.Now().UnixNano() + rng.Int63n(1e12) - 5e11
		}
		tsBuf = appendStamp(tsBuf[:0], ts)
		tss := ""
		if ts != 0 {
			tss = time.Unix(0, ts).UTC().Format(time.RFC3339Nano)
		}
		if string(tsBuf) != tss {
			t.Fatalf("appendStamp(%d) = %q, want %q", ts, tsBuf, tss)
		}

		ref := findingEvent(stream, tss, ev)
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		if enc := ref.appendJSON(nil); !bytes.Equal(enc, want) {
			t.Fatalf("appendJSON diverges from json.Marshal on the reference:\n got: %s\nwant: %s", enc, want)
		}
		buf = append(buf[:0], "prev|"...)
		buf = appendFinding(buf, stream, tsBuf, &ev)
		if got := buf[len("prev|"):]; string(buf[:len("prev|")]) != "prev|" || !bytes.Equal(got, want) {
			t.Fatalf("case %d: appendFinding diverges from the reference:\nevent: %+v\n got: %s\nwant: %s", i, ev, buf, want)
		}
	}
}
