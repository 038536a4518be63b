package sentinel

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/snoop"
	"repro/internal/tsdb"
)

// everyKindFindings pushes a capture that raises every finding kind,
// and a plaintext key through both carrying messages, through a live
// detector and returns its drained events.
func everyKindFindings(t testing.TB) []forensics.Event {
	t.Helper()
	peer := bt.MustBDADDR("00:1a:7d:da:71:0a")
	other := bt.MustBDADDR("f0:0d:ca:fe:00:ff")
	ok := hci.StatusSuccess
	d := forensics.NewLiveDetector()
	at := time.Date(2026, 3, 1, 9, 30, 0, 0, time.FixedZone("east", 3600))
	for i, pkt := range []hci.Packet{
		hci.EncodeCommand(&hci.AcceptConnectionRequest{Addr: peer}),
		hci.EncodeEvent(&hci.ConnectionComplete{Status: ok, Handle: 0x000b, Addr: peer}),
		hci.EncodeCommand(&hci.AuthenticationRequested{Handle: 0x000b}),
		hci.EncodeEvent(&hci.IOCapabilityResponse{Addr: peer, Capability: bt.NoInputNoOutput}),
		hci.EncodeCommand(&hci.LinkKeyRequestReply{Addr: peer, Key: bt.MustLinkKey("00112233445566778899aabbccddeeff")}),
		hci.EncodeEvent(&hci.SimplePairingComplete{Status: ok, Addr: peer}),
		hci.EncodeEvent(&hci.LinkKeyNotification{Addr: peer, Key: bt.MustLinkKey("ffeeddccbbaa99887766554433221100"), KeyType: bt.KeyTypeAuthenticatedP256}),
		hci.EncodeEvent(&hci.LinkKeyNotification{Addr: peer, Key: bt.MustLinkKey("0123456789abcdef0123456789abcdef"), KeyType: bt.KeyTypeUnauthenticatedP192}),
		hci.EncodeEvent(&hci.DisconnectionComplete{Status: ok, Handle: 0x000b, Reason: hci.StatusConnectionTimeout}),
		hci.EncodeEvent(&hci.ConnectionComplete{Status: ok, Handle: 0x0abc, Addr: other}),
		hci.EncodeCommand(&hci.AuthenticationRequested{Handle: 0x0abc}),
		hci.EncodeEvent(&hci.DisconnectionComplete{Status: ok, Handle: 0x0abc, Reason: hci.StatusLMPResponseTimeout}),
	} {
		d.Push(snoop.Record{Data: pkt.Wire(), Timestamp: at.Add(time.Duration(i)*time.Second + 123456789)})
	}
	return d.Drain()
}

// forensicsDecls parses package forensics and returns the values of its
// Finding* string constants and the source text of the first argument
// of every exposure call: the kinds and the key sources a finding can
// carry.
func forensicsDecls(t *testing.T) (kinds, sources map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../forensics", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	kinds, sources = map[string]bool{}, map[string]bool{}
	var src bytes.Buffer
	for _, f := range pkgs["forensics"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i >= len(n.Values) {
						break
					}
					if lit, ok := n.Values[i].(*ast.BasicLit); ok &&
						strings.HasPrefix(name.Name, "Finding") && lit.Kind == token.STRING {
						v, err := strconv.Unquote(lit.Value)
						if err != nil {
							t.Fatal(err)
						}
						kinds[v] = true
					}
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "exposure" && len(n.Args) > 0 {
					src.Reset()
					if err := printer.Fprint(&src, fset, n.Args[0]); err != nil {
						t.Fatal(err)
					}
					sources[src.String()] = true
				}
			}
			return true
		})
	}
	return kinds, sources
}

// TestFindingRecordRoundTrip holds the record to the shard writer's
// rendering: one live finding of each kind, both key-exposure sources,
// and capture times before 1970 and after 2262, each stored as a record
// and rendered by renderStored, must equal appendFinding on the
// original event byte for byte. A finding kind declared in forensics,
// or an exposure source, that has no record code fails it.
func TestFindingRecordRoundTrip(t *testing.T) {
	kinds, sources := forensicsDecls(t)
	if len(kinds) != len(findingKinds)-1 || len(sources) != len(keySources)-1 {
		t.Fatalf("forensics declares %d kinds and %d exposure sources; the record codes %d and %d",
			len(kinds), len(sources), len(findingKinds)-1, len(keySources)-1)
	}
	for k := range kinds {
		if codeOf(findingKinds[:], k) == 0 {
			t.Errorf("finding kind %q has no record code", k)
		}
	}

	evs := everyKindFindings(t)
	seenKind, seenSource := map[string]bool{}, map[string]bool{}
	for _, ev := range evs {
		seenKind[ev.Finding.Kind] = true
		if ev.Finding.Source != "" {
			seenSource[ev.Finding.Source] = true
		}
	}
	if len(seenKind) != len(kinds) || len(seenSource) != len(sources) {
		t.Fatalf("fixture raised kinds %v and sources %v; want all %d and %d", seenKind, seenSource, len(kinds), len(sources))
	}
	for _, at := range []time.Time{
		time.Date(1969, 7, 20, 20, 17, 40, 987654321, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.FixedZone("west", -5*3600)),
		time.Date(2262, 4, 12, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	} {
		ev := evs[0]
		ev.Time = at
		evs = append(evs, ev)
	}

	const stream, stamp = 42, 1_767_225_600_123_456_789
	var rec []byte
	for i := range evs {
		ev := &evs[i]
		var ok bool
		if rec, ok = appendFindingRecord(rec[:0], ev); !ok || len(rec) != findingRecordSize {
			t.Fatalf("event %d (%s, source %q) has no %d-byte record: %d bytes", i, ev.Finding.Kind, ev.Finding.Source, findingRecordSize, len(rec))
		}
		got, err := renderStored(nil, tsdb.Frame{TS: stamp, Key: stream, Data: rec})
		want := appendFinding(nil, stream, appendStamp(nil, stamp), ev)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("event %d: record renders (%v)\n%s\nwant\n%s", i, err, got, want)
		}
	}

	// What the record cannot carry is refused, never stored lossily.
	for name, mut := range map[string]func(*forensics.Event){
		"detail":  func(ev *forensics.Event) { ev.Finding.Detail = "rendered" },
		"kind":    func(ev *forensics.Event) { ev.Finding.Kind = "no-such-kind" },
		"source":  func(ev *forensics.Event) { ev.Finding.Source = "HCI_Something_Else" },
		"frame":   func(ev *forensics.Event) { ev.Finding.Frame++ },
		"no kind": func(ev *forensics.Event) { ev.Finding.Kind = "" },
	} {
		ev := evs[0]
		mut(&ev)
		if b, ok := appendFindingRecord(nil, &ev); ok || len(b) != 0 {
			t.Errorf("%s: a finding the record cannot carry was encoded", name)
		}
	}
}

// queryFindings serves /query?series=findings from store and returns
// the embedded event objects, compacted back from the response's
// indentation.
func queryFindings(t *testing.T, store *tsdb.Store) []string {
	t.Helper()
	s := New(Config{Store: store, MetricsEvery: -1, Shards: 1})
	defer shutdown(t, s)
	rec := httptest.NewRecorder()
	s.handleQuery(rec, httptest.NewRequest(http.MethodGet, "/query?series=findings", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/query: %d %s", rec.Code, rec.Body.Bytes())
	}
	var res QueryResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(res.Results))
	for i, qe := range res.Results {
		var b bytes.Buffer
		if err := json.Compact(&b, qe.Event); err != nil {
			t.Fatal(err)
		}
		out[i] = b.String()
	}
	return out
}

// oldFindingLines appends findings to the store as the daemon did
// before records existed, one JSONL line per frame, and returns the
// lines.
func oldFindingLines(t *testing.T, store *tsdb.Store, ts int64, evs []forensics.Event) []string {
	t.Helper()
	var lines []string
	for i := range evs {
		line := appendFinding(nil, 9, appendStamp(nil, ts), &evs[i])
		if err := store.Append(SeriesFindings, ts, 9, line); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	return lines
}

// TestQueryServesOldFindingLines: a store whose findings frames are
// JSONL lines, as older daemons wrote them, serves them verbatim.
func TestQueryServesOldFindingLines(t *testing.T) {
	store := openTestStore(t)
	want := oldFindingLines(t, store, time.Now().Add(-time.Minute).UnixNano(), everyKindFindings(t))
	if got := queryFindings(t, store); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("/query served\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestQueryServesMixedStore: old lines followed by records, as a store
// upgraded in place holds them, come back in append order, each as the
// line the daemon emitted.
func TestQueryServesMixedStore(t *testing.T) {
	store := openTestStore(t)
	evs := everyKindFindings(t)
	ts := time.Now().Add(-time.Minute).UnixNano()
	want := oldFindingLines(t, store, ts, evs)

	ts++
	var recs []byte
	for i := range evs {
		var ok bool
		if recs, ok = appendFindingRecord(recs, &evs[i]); !ok {
			t.Fatalf("finding %d has no record", i)
		}
		want = append(want, string(appendFinding(nil, 9, appendStamp(nil, ts), &evs[i])))
	}
	if n, err := store.AppendBatch(SeriesFindings, ts, 9, recs, findingRecordSize); err != nil || n != len(evs) {
		t.Fatalf("AppendBatch wrote %d of %d: %v", n, len(evs), err)
	}
	if got := queryFindings(t, store); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("/query served\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// FuzzFindingRecord feeds arbitrary bytes to the record decoder and to
// renderStored. Neither may panic; any input the decoder accepts must
// re-encode to the same 48 bytes and render as valid JSON.
func FuzzFindingRecord(f *testing.F) {
	for _, ev := range everyKindFindings(f) {
		rec, _ := appendFindingRecord(nil, &ev)
		f.Add(rec)
	}
	f.Add([]byte(`{"type":"finding","stream":1}`))
	f.Add([]byte{findingRecordMagic})
	f.Add(make([]byte, findingRecordSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ev forensics.Event
		if decodeFindingRecord(data, &ev) {
			again, ok := appendFindingRecord(nil, &ev)
			if !ok || !bytes.Equal(again, data) {
				t.Fatalf("decoded %x re-encodes to %x (ok %v)", data, again, ok)
			}
		}
		out, err := renderStored(nil, tsdb.Frame{TS: 1, Key: 2, Data: data})
		if err == nil && len(data) > 0 && data[0] == findingRecordMagic && !json.Valid(out) {
			t.Fatalf("record %x renders invalid JSON %q", data, out)
		}
	})
}
