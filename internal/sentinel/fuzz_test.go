package sentinel

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tsdb"
)

// fuzzServer is a server that is never started: the fuzz targets call
// its handlers directly.
func fuzzServer(f *testing.F, cfg Config) *Server {
	cfg.Shards = 1
	s := New(cfg)
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// encodeHandshake is the post-magic session handshake for (sid, tenant):
// version byte, then each string as a u16-LE length and its bytes.
func encodeHandshake(sid, tenant string) []byte {
	b := []byte{sessionVersion}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(sid)))
	b = append(b, sid...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(tenant)))
	return append(b, tenant...)
}

// dialHandshake returns what DialSession writes after the magic for
// (sid, tenant). The loopback listener rejects the session, so the
// client closes and every byte it sent can be read to EOF.
func dialHandshake(f *testing.F, sid, tenant string) []byte {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan error, 1)
	go func() {
		_, _, err := DialSession("tcp", ln.Addr().String(), sid, tenant, 5*time.Second)
		dialed <- err
	}()
	conn, err := ln.Accept()
	if err != nil {
		f.Fatal(err)
	}
	defer conn.Close()
	if err := writeConnEvent(conn, Event{Type: EventStreamRejected, Error: "seed capture"}); err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(conn)
	if err != nil {
		f.Fatal(err)
	}
	if err := <-dialed; err == nil || !strings.Contains(err.Error(), "seed capture") {
		f.Fatalf("DialSession(%q, %q): %v", sid, tenant, err)
	}
	hs, ok := bytes.CutPrefix(raw, []byte(sessionMagic))
	if !ok || !bytes.Equal(hs, encodeHandshake(sid, tenant)) {
		f.Fatalf("DialSession(%q, %q) wrote %q", sid, tenant, raw)
	}
	return hs
}

// chunkPayload is the reference decoding of a session chunk stream: the
// payload bytes in order, and whether a zero-length chunk ended the
// stream cleanly before any truncation or over-cap header.
func chunkPayload(b []byte) (payload []byte, fin bool) {
	for len(b) >= 4 {
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if n == 0 {
			return payload, true
		}
		if n > maxSessionChunk {
			return payload, false
		}
		take := min(int(n), len(b))
		payload = append(payload, b[:take]...)
		if take < int(n) {
			return payload, false
		}
		b = b[take:]
	}
	return payload, false
}

func chunk(payload string) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// FuzzSessionHandshake feeds arbitrary bytes (what follows the protocol
// magic on a session connection) through a net.Pipe into the handshake
// parser and then the chunk reader. An accepted handshake must carry an
// in-cap id and tenant, an empty id only with an empty tenant (a
// one-shot stream), and re-encode to exactly the bytes it consumed; the
// reader must then deliver exactly the reference chunk decoding of the
// rest, ending cleanly only on a fin chunk. A one-shot stream's reader
// runs without a session entry, so it must end at the first transport
// error without parking.
func FuzzSessionHandshake(f *testing.F) {
	fin := chunk("")
	for _, c := range []struct{ sid, tenant string }{
		{"s9", ""},
		{"bench-0", "tenant-a"},
		{strings.Repeat("i", maxSessionID), strings.Repeat("t", maxTenantLen)},
		{"", ""},
	} {
		hs := dialHandshake(f, c.sid, c.tenant)
		f.Add(hs)
		f.Add(hs[:len(hs)-1])
		f.Add(bytes.Join([][]byte{hs, chunk("btsnoop\x00"), chunk("tail"), fin}, nil))
		f.Add(bytes.Join([][]byte{hs, chunk("cut"), {9, 0, 0, 0, 'x'}}, nil))
		f.Add(append(hs, binary.LittleEndian.AppendUint32(nil, maxSessionChunk+1)...))
	}
	f.Add([]byte{sessionVersion, 0, 0, 1, 0, 't'}) // empty id with a tenant
	f.Add([]byte{2, 1, 0, 'a', 0, 0})

	// Resume disabled: a transport error ends the read instead of
	// parking. Acks never fire on fuzz-sized inputs (they would block
	// on the pipe's unread client side).
	s := fuzzServer(f, Config{ResumeGrace: -1, AckEvery: 1 << 40})
	f.Fuzz(func(t *testing.T, data []byte) {
		srvEnd, cliEnd := net.Pipe()
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			_, _ = cliEnd.Write(data)
			_ = cliEnd.Close()
		}()
		defer func() {
			_ = srvEnd.Close()
			<-sent
		}()

		sid, tenant, err := s.readSessionHandshake(srvEnd)
		if err != nil {
			return
		}
		if (sid == "" && tenant != "") || len(sid) > maxSessionID || len(tenant) > maxTenantLen {
			t.Fatalf("accepted id %q (%d bytes), tenant %q (%d bytes)", sid, len(sid), tenant, len(tenant))
		}
		hs := encodeHandshake(sid, tenant)
		if !bytes.HasPrefix(data, hs) {
			t.Fatalf("accepted (%q, %q) does not re-encode to the consumed prefix of %q", sid, tenant, data)
		}

		st := &streamState{ent: &sessionEntry{}}
		if sid == "" {
			st = &streamState{} // one-shot: no entry to park on
		}
		r := newSessionReader(s, st, srvEnd, 0)
		got, rerr := io.ReadAll(r)
		want, clean := chunkPayload(data[len(hs):])
		if !bytes.Equal(got, want) {
			t.Fatalf("reader delivered %q, chunks carry %q", got, want)
		}
		if clean != (rerr == nil) {
			t.Fatalf("read ended with %v, fin chunk seen = %v", rerr, clean)
		}
		if r.delivered != int64(len(got)) {
			t.Fatalf("delivered counter %d, payload %d bytes", r.delivered, len(got))
		}
	})
}

// FuzzQueryParams drives /query with arbitrary series, since, until,
// stream and limit values against a small store: every answer is a 200
// carrying JSON for the requested series or a 400, never a 5xx or a
// panic. It also holds parseQueryTime to an exact round trip of every
// in-range integer in unix seconds, and to rejecting the rest.
func FuzzQueryParams(f *testing.F) {
	store, err := tsdb.Open(tsdb.Options{Dir: f.TempDir(), CompactEvery: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range 8 {
		ts := base.Add(time.Duration(i) * time.Second).UnixNano()
		stream := uint64(i%2 + 1)
		ev := fmt.Appendf(nil, `{"type":"finding","stream":%d,"seq":%d}`, stream, i+1)
		if err := store.Append(SeriesFindings, ts, stream, ev); err != nil {
			f.Fatal(err)
		}
	}
	if err := store.Append(SeriesEnds, base.UnixNano(), 1, []byte(`{"type":"stream-end","stream":1}`)); err != nil {
		f.Fatal(err)
	}
	hist, err := json.Marshal(histPoint{IntervalMS: 1000,
		Ingest: obs.HistogramState{MinNS: -1}, Detect: obs.HistogramState{MinNS: -1}})
	if err != nil {
		f.Fatal(err)
	}
	if err := store.Append(SeriesHist, base.UnixNano(), 0, hist); err != nil {
		f.Fatal(err)
	}
	s := fuzzServer(f, Config{Store: store, MetricsEvery: -1})

	unix := strconv.FormatInt(base.Unix(), 10)
	f.Add(SeriesFindings, "", "", "", "", int64(0))
	f.Add(SeriesFindings, unix, strconv.FormatInt(base.Unix()+5, 10), "1", "3", base.Unix())
	f.Add(SeriesEnds, base.Format(time.RFC3339), "", "2", "1", int64(-1))
	f.Add(SeriesHist, "", base.Format(time.RFC3339Nano), "", "", maxQueryUnixSec)
	f.Add("nope", "huh", "", "-1", "zero", maxQueryUnixSec+1)
	f.Add(SeriesFindings, "99999999999999", "-99999999999999", "0", "-5", -maxQueryUnixSec)
	f.Add(SeriesFindings, "", "9999-12-31T23:59:59Z", "18446744073709551615", "2147483648", int64(math.MinInt64))

	f.Fuzz(func(t *testing.T, series, since, until, stream, limit string, sec int64) {
		q := url.Values{}
		for k, v := range map[string]string{"series": series, "since": since, "until": until, "stream": stream, "limit": limit} {
			if v != "" {
				q.Set(k, v)
			}
		}
		rec := httptest.NewRecorder()
		s.handleQuery(rec, httptest.NewRequest(http.MethodGet, "/query?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusOK:
			var res QueryResult
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Series != series {
				t.Fatalf("%s: 200 with body %q (%v)", q.Encode(), rec.Body.Bytes(), err)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("%s: status %d: %s", q.Encode(), rec.Code, rec.Body.Bytes())
		}

		got, err := parseQueryTime(strconv.FormatInt(sec, 10))
		if sec < -maxQueryUnixSec || sec > maxQueryUnixSec {
			if err == nil {
				t.Fatalf("parseQueryTime accepted out-of-range %d as %d", sec, got)
			}
		} else if err != nil || got != sec*int64(time.Second) {
			t.Fatalf("parseQueryTime(%d) = %d, %v; want %d", sec, got, err, sec*int64(time.Second))
		}
	})
}
