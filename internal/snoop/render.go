package snoop

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bt"
	"repro/internal/hci"
)

// FrameSummary is one row of an hcidump/Frontline-style trace table, the
// presentation used in the paper's Fig. 3 and Fig. 12.
type FrameSummary struct {
	Frame   int
	Type    string // "Command" or "Event" (data frames are skipped)
	Command string // opcode name for commands, or the acknowledged opcode
	Event   string // event name
	Handle  string // connection handle when present, e.g. "0x0006"
	Status  string // status name when present
}

// Summarize decodes command/event records into trace-table rows. Frame
// numbers are 1-based positions within the capture (all packet types
// count, matching how real captures number frames).
func Summarize(records []Record) []FrameSummary {
	var rows []FrameSummary
	for i, rec := range records {
		if row, ok := SummarizeRecord(i+1, rec); ok {
			rows = append(rows, row)
		}
	}
	return rows
}

// SummarizeRecord decodes one record into a trace-table row, reporting
// false for frames the table skips (data packets). The record body is
// only borrowed (never retained), so a caller can drive it straight off
// a BatchScanner's blocks and render arbitrarily large files in
// constant memory.
func SummarizeRecord(frame int, rec Record) (FrameSummary, bool) {
	if len(rec.Data) == 0 {
		return FrameSummary{}, false
	}
	dir := hci.DirHostToController
	if rec.Received() {
		dir = hci.DirControllerToHost
	}
	pkt, err := hci.ParseWireBorrow(dir, rec.Data)
	if err != nil {
		return FrameSummary{}, false
	}
	row := FrameSummary{Frame: frame}
	switch pkt.PT {
	case hci.PTCommand:
		row.Type = "Command"
		op, _ := pkt.CommandOpcode()
		row.Command = op.String()
		if cmd, err := hci.ParseCommand(pkt); err == nil {
			switch c := cmd.(type) {
			case *hci.AuthenticationRequested:
				row.Handle = fmt.Sprintf("0x%04x", uint16(c.Handle))
			case *hci.Disconnect:
				row.Handle = fmt.Sprintf("0x%04x", uint16(c.Handle))
			case *hci.SetConnectionEncryption:
				row.Handle = fmt.Sprintf("0x%04x", uint16(c.Handle))
			}
		}
	case hci.PTEvent:
		row.Type = "Event"
		code, _ := pkt.EventCode()
		row.Event = code.String()
		if evt, err := hci.ParseEvent(pkt); err == nil {
			switch e := evt.(type) {
			case *hci.CommandStatus:
				row.Command = e.CommandOpcode.String()
				row.Status = e.Status.String()
			case *hci.CommandComplete:
				row.Command = e.CommandOpcode.String()
				if len(e.ReturnParams) > 0 {
					row.Status = hci.Status(e.ReturnParams[0]).String()
				}
			case *hci.ConnectionComplete:
				row.Handle = fmt.Sprintf("0x%04x", uint16(e.Handle))
				row.Status = e.Status.String()
			case *hci.DisconnectionComplete:
				row.Handle = fmt.Sprintf("0x%04x", uint16(e.Handle))
				row.Status = e.Reason.String()
			case *hci.AuthenticationComplete:
				row.Handle = fmt.Sprintf("0x%04x", uint16(e.Handle))
				row.Status = e.Status.String()
			case *hci.EncryptionChange:
				row.Handle = fmt.Sprintf("0x%04x", uint16(e.Handle))
				row.Status = e.Status.String()
			case *hci.SimplePairingComplete:
				row.Status = e.Status.String()
			case *hci.InquiryComplete:
				row.Status = e.Status.String()
			}
		}
	default:
		return FrameSummary{}, false
	}
	return row, true
}

// TableHeader returns the header line of the Frontline-style trace table.
func TableHeader() string {
	return fmt.Sprintf("%-5s %-8s %-45s %-35s %-8s %s\n", "Fra", "Type", "Opcode Command", "Event", "Handle", "Status")
}

// FormatRow renders one trace-table row, newline-terminated.
func FormatRow(r FrameSummary) string {
	return fmt.Sprintf("%-5d %-8s %-45s %-35s %-8s %s\n", r.Frame, r.Type, r.Command, r.Event, r.Handle, r.Status)
}

// RenderTable renders rows in the Frontline-style columnar layout of the
// paper's Fig. 12.
func RenderTable(rows []FrameSummary) string {
	var b strings.Builder
	b.WriteString(TableHeader())
	for _, r := range rows {
		b.WriteString(FormatRow(r))
	}
	return b.String()
}

// CommandEventNames flattens rows to "name" strings (command opcode names
// for commands, event names for events), for sequence assertions in tests.
func CommandEventNames(rows []FrameSummary) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		if r.Type == "Command" {
			out = append(out, r.Command)
		} else {
			out = append(out, r.Event)
		}
	}
	return out
}

// LinkKeyHit is one plaintext link key located in a capture.
type LinkKeyHit struct {
	Frame int // 1-based frame number
	// Source describes the carrying packet: "HCI_Link_Key_Request_Reply"
	// or "HCI_Link_Key_Notification".
	Source string
	Peer   bt.BDADDR
	Key    bt.LinkKey
}

// ExtractLinkKeys scans a capture for packets that carry link keys and
// returns every key found — the core of the paper's link key extraction
// attack when the HCI dump is the source.
func ExtractLinkKeys(records []Record) []LinkKeyHit {
	var hits []LinkKeyHit
	for i, rec := range records {
		if hit, ok := linkKeyFromRecord(i+1, rec); ok {
			hits = append(hits, hit)
		}
	}
	return hits
}

// ScanLinkKeys is ExtractLinkKeys over a btsnoop stream: the capture is
// scanned block by block with a reused buffer, so multi-gigabyte dumps
// are searched in constant memory.
func ScanLinkKeys(r io.Reader) ([]LinkKeyHit, error) {
	sc := NewBatchScanner(r)
	var (
		b    RecordBatch
		hits []LinkKeyHit
	)
	for sc.ScanBatch(&b) {
		for i, rec := range b.Records {
			if hit, ok := linkKeyFromRecord(b.First+i, rec); ok {
				hits = append(hits, hit)
			}
		}
	}
	return hits, sc.Err()
}

// linkKeyFromRecord extracts a link key from one record, if it carries
// one. The opcode/event peek keeps the hot path allocation-free: only
// the two key-bearing packet kinds are ever fully parsed.
func linkKeyFromRecord(frame int, rec Record) (LinkKeyHit, bool) {
	raw := rec.Data
	interesting := false
	if op, ok := hci.PeekCommandOpcode(raw); ok {
		interesting = op == hci.OpLinkKeyRequestReply
	} else if code, ok := hci.PeekEventCode(raw); ok {
		interesting = code == hci.EvLinkKeyNotification
	}
	if !interesting {
		return LinkKeyHit{}, false
	}
	dir := hci.DirHostToController
	if rec.Received() {
		dir = hci.DirControllerToHost
	}
	pkt, err := hci.ParseWireBorrow(dir, raw)
	if err != nil {
		return LinkKeyHit{}, false
	}
	switch pkt.PT {
	case hci.PTCommand:
		cmd, err := hci.ParseCommand(pkt)
		if err != nil {
			return LinkKeyHit{}, false
		}
		if c, ok := cmd.(*hci.LinkKeyRequestReply); ok {
			return LinkKeyHit{Frame: frame, Source: hci.OpLinkKeyRequestReply.String(), Peer: c.Addr, Key: c.Key}, true
		}
	case hci.PTEvent:
		evt, err := hci.ParseEvent(pkt)
		if err != nil {
			return LinkKeyHit{}, false
		}
		if e, ok := evt.(*hci.LinkKeyNotification); ok {
			return LinkKeyHit{Frame: frame, Source: hci.EvLinkKeyNotification.String(), Peer: e.Addr, Key: e.Key}, true
		}
	}
	return LinkKeyHit{}, false
}

// KeysFor filters hits to those whose peer address matches addr.
func KeysFor(hits []LinkKeyHit, addr bt.BDADDR) []LinkKeyHit {
	var out []LinkKeyHit
	for _, h := range hits {
		if h.Peer == addr {
			out = append(out, h)
		}
	}
	return out
}
