package sentinel

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/forensics"
	"repro/internal/hci"
)

// findingEvent is the reference rendering of one detector finding: the
// Event the daemon built per finding before the shard writers rendered
// bursts themselves, with the finding text rendered by AppendDetail. tss
// is the RFC3339Nano emission stamp, empty when timestamps are off.
func findingEvent(id uint64, tss string, ev forensics.Event) Event {
	return Event{
		Type:      EventFinding,
		Stream:    id,
		TS:        tss,
		Seq:       ev.Seq,
		Frame:     ev.Frame,
		Kind:      ev.Finding.Kind,
		Peer:      ev.Finding.Peer.String(),
		Detail:    string(ev.Finding.AppendDetail(nil)),
		CaptureTS: ev.Time.UTC().Format(time.RFC3339Nano),
	}
}

// TestAppendFindingMatchesEventJSON pins the burst renderer to the
// reference: for randomized findings — zero and non-UTC capture times,
// years outside 0000–9999, zero Seq and Frame, empty and hostile kinds
// and details (quotes, backslashes, <, >, &, control bytes, invalid
// UTF-8, U+2028/U+2029), structured findings of every kind as the
// detector emits them (Detail empty, random handles, reasons, key types
// and sources), timestamps on and off — appendFinding must produce
// exactly json.Marshal and appendJSON of findingEvent, appended after
// existing bytes without disturbing them.
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
	kinds := []string{
		forensics.FindingKeyExposure, forensics.FindingPageBlocking, forensics.FindingStalledAuthTimeout,
		forensics.FindingSilentRepairing, forensics.FindingSilentKeyChange, forensics.FindingKeyTypeDowngrade, "",
	}
	sources := []string{hci.OpLinkKeyRequestReply.String(), hci.EvLinkKeyNotification.String()}
	structured := make(map[string]bool) // kinds rendered from structured fields

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
		switch rng.Intn(3) {
		case 0: // structured, as the detector emits it
			ev.Finding.Source = sources[rng.Intn(len(sources))]
			if rng.Intn(4) == 0 {
				ev.Finding.Source = randStr()
			}
			ev.Finding.Handle = bt.ConnHandle(rng.Intn(1 << 16))
			ev.Finding.Reason = hci.Status(rng.Intn(256))
			ev.Finding.PrevKeyType = bt.LinkKeyType(rng.Intn(10))
			ev.Finding.KeyType = bt.LinkKeyType(rng.Intn(10))
			if len(ev.Finding.AppendDetail(nil)) > 0 {
				structured[ev.Finding.Kind] = true
			}
		case 1:
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
	for _, k := range kinds[:6] {
		if !structured[k] {
			t.Errorf("no structured %s finding was rendered", k)
		}
	}
}

// TestAppendFindingAllocs: rendering a structured finding of any kind
// into a buffer with room allocates nothing — the detail text goes
// through a stack buffer straight into the escaped line.
func TestAppendFindingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector distorts allocation counts")
	}
	peer := bt.MustBDADDR("00:1a:7d:da:71:0a")
	buf := make([]byte, 0, 4096)
	for _, f := range []forensics.Finding{
		{Kind: forensics.FindingKeyExposure, Frame: 12345, Peer: peer, Source: hci.EvLinkKeyNotification.String()},
		{Kind: forensics.FindingPageBlocking, Frame: 7, Peer: peer},
		{Kind: forensics.FindingSilentRepairing, Frame: 7, Peer: peer},
		{Kind: forensics.FindingSilentKeyChange, Frame: 7, Peer: peer},
		{Kind: forensics.FindingKeyTypeDowngrade, Frame: 7, Peer: peer, PrevKeyType: bt.KeyTypeAuthenticatedP256, KeyType: bt.KeyTypeUnauthenticatedP192},
		{Kind: forensics.FindingStalledAuthTimeout, Frame: 7, Peer: peer, Handle: 0x0abc, Reason: hci.StatusLMPResponseTimeout},
	} {
		ev := forensics.Event{Seq: 1, Frame: f.Frame, Time: time.Unix(1700000000, 5).UTC(), Finding: f}
		if n := testing.AllocsPerRun(100, func() { buf = appendFinding(buf[:0], 3, nil, &ev) }); n != 0 {
			t.Errorf("%s: %.1f allocations per rendered finding", f.Kind, n)
		}
	}
}

// FuzzAppendJSONString pins the escaper, in both its string and []byte
// instantiations, to json.Marshal of the same string: every byte value,
// every position of an escape relative to the eight-byte verbatim scan,
// invalid and truncated UTF-8, and U+2028/U+2029.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "a", "abcdefgh", "abcdefghi", "plaintext-link-key",
		"authentication on handle 0x000b never completed; link dropped with Connection Timeout — the trace a link key extraction stall leaves behind",
		"1234567\"", "12345678<", "\x00\x1f\x7f\x80\xff", "<script>&amp;</script>",
		"tab\there\nnewline\\back\"quote", "\u2028\u2029 line seps", "\xe2\x80", "\xed\xa0\x80 surrogate",
		"héllo wörld ☃ 𝄞", "aaaaaaa\xe2\x80\xa8bbbbbbbb",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, err := json.Marshal(string(data))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte{'x'}, string(data)); !bytes.Equal(got[1:], want) {
			t.Fatalf("string %q:\ngot  %s\nwant %s", data, got[1:], want)
		}
		if got := appendJSONString([]byte{'x'}, data); !bytes.Equal(got[1:], want) {
			t.Fatalf("[]byte %q:\ngot  %s\nwant %s", data, got[1:], want)
		}
	})
}
