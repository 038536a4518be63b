package snoop

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bt"
	"repro/internal/hci"
)

func sampleRecords() []Record {
	return []Record{
		{
			OriginalLength: 4,
			Flags:          FlagCommandEvent,
			Timestamp:      CaptureBase,
			Data:           hci.EncodeCommand(&hci.Reset{}).Wire(),
		},
		{
			OriginalLength: 26,
			Flags:          FlagCommandEvent,
			Timestamp:      CaptureBase.Add(3 * time.Millisecond),
			Data: hci.EncodeCommand(&hci.LinkKeyRequestReply{
				Addr: bt.MustBDADDR("00:1a:7d:da:71:0a"),
				Key:  bt.MustLinkKey("71bb87cecb00000000000000000000aa"),
			}).Wire(),
		},
		{
			OriginalLength: 10,
			Flags:          FlagCommandEvent | FlagDirectionReceived,
			Timestamp:      CaptureBase.Add(5 * time.Millisecond),
			Data:           hci.EncodeEvent(&hci.LinkKeyRequest{Addr: bt.MustBDADDR("00:1a:7d:da:71:0a")}).Wire(),
		},
	}
}

func fixLengths(recs []Record) []Record {
	for i := range recs {
		recs[i].OriginalLength = uint32(len(recs[i].Data))
	}
	return recs
}

func TestWriterReaderRoundTrip(t *testing.T) {
	recs := fixLengths(sampleRecords())
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i].Data, recs[i].Data) {
			t.Errorf("record %d data mismatch", i)
		}
		if got[i].Flags != recs[i].Flags {
			t.Errorf("record %d flags %x != %x", i, got[i].Flags, recs[i].Flags)
		}
		if !got[i].Timestamp.Equal(recs[i].Timestamp) {
			t.Errorf("record %d time %v != %v", i, got[i].Timestamp, recs[i].Timestamp)
		}
	}
}

func TestTimestampRoundTripProperty(t *testing.T) {
	f := func(micros int64) bool {
		// Stay inside a plausible capture era to avoid UnixMicro overflow.
		micros = micros % (1 << 50)
		if micros < 0 {
			micros = -micros
		}
		ts := time.UnixMicro(micros).UTC()
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteRecord(Record{Timestamp: ts, Data: []byte{0x01, 0x03, 0x0c, 0x00}, OriginalLength: 4}); err != nil {
			return false
		}
		got, err := ReadAll(buf.Bytes())
		return err == nil && len(got) == 1 && got[0].Timestamp.Equal(ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFileHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 16 {
		t.Fatalf("header length %d, want 16", buf.Len())
	}
	if string(buf.Bytes()[:8]) != "btsnoop\x00" {
		t.Fatalf("magic: %q", buf.Bytes()[:8])
	}
	recs, err := ReadAll(buf.Bytes())
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty file parse: %v %d", err, len(recs))
	}
}

func TestReaderRejectsBadInput(t *testing.T) {
	if _, err := ReadAll([]byte("notasnoopfile...")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	// Correct magic, wrong version.
	bad := append([]byte("btsnoop\x00"), 0, 0, 0, 9, 0, 0, 3, 0xEA)
	if _, err := ReadAll(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}
	// Correct version, unknown datalink (9999 — not one of the four
	// btsnoop-defined types).
	bad2 := append([]byte("btsnoop\x00"), 0, 0, 0, 1, 0, 0, 0x27, 0x0F)
	if _, err := ReadAll(bad2); !errors.Is(err, ErrBadDatalink) {
		t.Errorf("bad datalink: %v", err)
	}
	// Known non-H4 datalinks parse.
	h1 := append([]byte("btsnoop\x00"), 0, 0, 0, 1, 0, 0, 3, 0xE9)
	if recs, err := ReadAll(h1); err != nil || len(recs) != 0 {
		t.Errorf("H1 datalink header: %v %d", err, len(recs))
	}
	// Truncated record payload.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteRecord(Record{Data: []byte{1, 2, 3, 4}, OriginalLength: 4})
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadAll(trunc); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	if len(trunc) != 0 {
		r := NewBatchScanner(bytes.NewReader(nil))
		var b RecordBatch
		if r.ScanBatch(&b) || !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("empty stream: %v", r.Err())
		}
	}
}

func TestReaderStopsAtEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.WriteRecord(Record{Data: []byte{0x01, 0x03, 0x0c, 0x00}, OriginalLength: 4})
	r := NewBatchScanner(bytes.NewReader(buf.Bytes()))
	var b RecordBatch
	if !r.ScanBatch(&b) || len(b.Records) != 1 {
		t.Fatalf("first batch: %d records, err %v", len(b.Records), r.Err())
	}
	if r.ScanBatch(&b) {
		t.Fatalf("scan past the last record returned %d more", len(b.Records))
	}
	if err := r.Err(); err != nil {
		t.Fatalf("clean end of log reported %v", err)
	}
	if r.Datalink() != DatalinkH4 {
		t.Fatalf("datalink %d", r.Datalink())
	}
}

func TestHCIDumpTap(t *testing.T) {
	d := NewHCIDump()
	cmd := hci.EncodeCommand(&hci.Reset{})
	evt := hci.EncodeEvent(&hci.InquiryComplete{Status: hci.StatusSuccess})
	acl := hci.EncodeACL(hci.DirHostToController, 3, []byte{1, 2, 3, 4, 5, 6})
	d.Observe(time.Second, hci.DirHostToController, cmd.Wire())
	d.Observe(2*time.Second, hci.DirControllerToHost, evt.Wire())
	d.Observe(3*time.Second, hci.DirHostToController, acl.Wire())
	if d.Len() != 3 {
		t.Fatalf("len=%d", d.Len())
	}
	recs := d.Records()
	if recs[0].Flags != FlagCommandEvent {
		t.Errorf("command flags %x", recs[0].Flags)
	}
	if recs[1].Flags != FlagCommandEvent|FlagDirectionReceived {
		t.Errorf("event flags %x", recs[1].Flags)
	}
	if recs[2].Flags != 0 {
		t.Errorf("outbound ACL flags %x", recs[2].Flags)
	}
	if !recs[0].Timestamp.Equal(CaptureBase.Add(time.Second)) {
		t.Errorf("timestamp %v", recs[0].Timestamp)
	}

	// Disabled dumps record nothing.
	d.SetEnabled(false)
	d.Observe(4*time.Second, hci.DirHostToController, cmd.Wire())
	if d.Len() != 3 {
		t.Error("disabled dump recorded")
	}
	d.SetEnabled(true)
	if !d.Enabled() {
		t.Error("enable toggle broken")
	}

	// Serialized bytes parse back.
	data, err := d.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(data)
	if err != nil || len(back) != 3 {
		t.Fatalf("parse back: %v %d", err, len(back))
	}

	d.Reset()
	if d.Len() != 0 {
		t.Error("reset did not clear")
	}
}

func TestSummarizeRendersFrames(t *testing.T) {
	d := NewHCIDump()
	d.Observe(0, hci.DirHostToController, hci.EncodeCommand(&hci.CreateConnection{Addr: bt.MustBDADDR("00:1a:7d:da:71:0a")}).Wire())
	d.Observe(0, hci.DirControllerToHost, hci.EncodeEvent(&hci.CommandStatus{Status: hci.StatusSuccess, CommandOpcode: hci.OpCreateConnection}).Wire())
	d.Observe(0, hci.DirControllerToHost, hci.EncodeEvent(&hci.ConnectionComplete{Status: hci.StatusSuccess, Handle: 6, Addr: bt.MustBDADDR("00:1a:7d:da:71:0a"), LinkType: hci.LinkTypeACL}).Wire())
	d.Observe(0, hci.DirHostToController, hci.EncodeACL(hci.DirHostToController, 6, []byte{1, 2, 3, 4, 5, 6}).Wire())

	rows := Summarize(d.Records())
	if len(rows) != 3 { // the ACL frame is skipped
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[0].Command != "HCI_Create_Connection" || rows[0].Type != "Command" {
		t.Errorf("row 0: %+v", rows[0])
	}
	if rows[1].Event != "HCI_Command_Status" || rows[1].Status != "Success" {
		t.Errorf("row 1: %+v", rows[1])
	}
	if rows[2].Handle != "0x0006" {
		t.Errorf("row 2 handle: %+v", rows[2])
	}
	// Frame numbers are positions in the raw capture (1-based), so the
	// skipped ACL frame leaves a gap.
	if rows[2].Frame != 3 {
		t.Errorf("frame numbering: %+v", rows[2])
	}
	table := RenderTable(rows)
	if !bytes.Contains([]byte(table), []byte("HCI_Create_Connection")) {
		t.Errorf("render:\n%s", table)
	}
	names := CommandEventNames(rows)
	if len(names) != 3 || names[0] != "HCI_Create_Connection" {
		t.Errorf("names: %v", names)
	}
}
