// Package forensics reconstructs what happened on a device from its HCI
// dump alone — the paper's own methodology: §VI-B2 confirms the page
// blocking attack by checking that the victim's capture shows an
// HCI_Connection_Request event followed by a locally issued
// HCI_Authentication_Requested. The analyzer rebuilds connections and
// pairings from a btsnoop capture and flags:
//
//   - plaintext link key exposures (the §IV vulnerability);
//   - page-blocking signatures (incoming connection + local pairing
//     initiation + a NoInputNoOutput peer);
//   - suspicious timeout disconnects during authentication (the trace a
//     link key extraction attack leaves on the *accessory*).
//
// Every entry point shares one single-pass session reducer. Analyze
// walks records already in memory, one Push at a time — the reference.
// AnalyzeBatch and AnalyzeBytes digest a btsnoop stream or byte slice of
// any size through the block scanner and its in-sweep prefilter.
// Detector (detector.go) is the incremental core they all wrap — push
// records as they arrive, drain findings as soon as the reducer
// produces them — and is what the blapd live-ingestion daemon and
// hcidump's tail mode run against a capture that is still growing.
package forensics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/bt"
	"repro/internal/hci"
	"repro/internal/snoop"
)

// Session is one reconstructed ACL connection.
type Session struct {
	Handle bt.ConnHandle
	Peer   bt.BDADDR

	// Incoming is true when the capture shows HCI_Connection_Request /
	// HCI_Accept_Connection_Request for this peer (we were paged).
	Incoming bool
	// LocalPairingInitiation is true when the host issued
	// HCI_Authentication_Requested on this handle.
	LocalPairingInitiation bool
	// PeerIOCap is the capability from HCI_IO_Capability_Response.
	PeerIOCap     bt.IOCapability
	HavePeerIOCap bool

	// PairingCompleted / PairingStatus summarize Simple_Pairing_Complete.
	PairingCompleted bool
	PairingStatus    hci.Status

	// AuthOutcomes collects Authentication_Complete statuses.
	AuthOutcomes []hci.Status
	// DisconnectReason is the final Disconnection_Complete reason.
	DisconnectReason    hci.Status
	Disconnected        bool
	ConnectedAt, EndsAt time.Time

	// flaggedPageBlocking keeps the page-blocking finding one-shot per
	// session as its signature elements accumulate.
	flaggedPageBlocking bool
	// suppliedStoredKey is set when the host answered a link key request
	// for this session's peer with a stored key — the precondition of the
	// silent re-pairing signature. flaggedSilentRepair keeps that finding
	// one-shot per session.
	suppliedStoredKey   bool
	flaggedSilentRepair bool
}

// KeyExposure is one plaintext link key found in the capture.
type KeyExposure struct {
	Frame  int
	Source string
	Peer   bt.BDADDR
	Key    bt.LinkKey
}

// Finding is one flagged anomaly. Frame is the 1-based capture position
// of the record that completed the finding — the earliest point at which
// an online detector could have raised it.
type Finding struct {
	Kind    string
	Frame   int
	Peer    bt.BDADDR
	Detail  string
	Session *Session
}

// Finding kinds.
const (
	FindingKeyExposure        = "plaintext-link-key"
	FindingPageBlocking       = "page-blocking-signature"
	FindingStalledAuthTimeout = "stalled-authentication-timeout"
	// FindingSilentRepairing: the host supplied a stored link key for a
	// peer and the same session still ran a full pairing to completion —
	// the Stealtooth trace: a failed challenge silently re-pairs a peer
	// the host believed it already shared a key with.
	FindingSilentRepairing = "silent-repairing"
	// FindingSilentKeyChange: a Link_Key_Notification delivered a key for
	// a peer that differs from the last key sighted for that address in
	// this capture (via reply or notification) — the Happy-MitM trace of a
	// bonded key being replaced underneath the user.
	FindingSilentKeyChange = "silent-key-change"
	// FindingKeyTypeDowngrade: a peer whose last notified key type was
	// authenticated (MITM-protected) received a new key without MITM
	// protection — the BLURtooth-style association downgrade.
	FindingKeyTypeDowngrade = "key-type-downgrade"
)

// Report is the full analysis of one capture.
type Report struct {
	Sessions  []*Session
	Exposures []KeyExposure
	Findings  []Finding
}

// sessionState is the single-pass session reducer at the core of every
// entry point (Analyze, AnalyzeBatch, the live Detector). It consumes
// typed HCI messages in capture order; because its input is a pure
// function of each record, feeding it from a record loop, a prefiltered
// batch scan, or a live socket yields bit-identical reports. Findings
// are emitted the moment the last record completing them is applied —
// never deferred to end-of-capture — which is what lets the Detector
// surface them while a capture is still being written.
type sessionState struct {
	rep      *Report
	byHandle map[bt.ConnHandle]*Session
	byPeer   map[bt.BDADDR]*Session // latest session per peer
	// Peers whose connection arrived inbound but have no handle yet.
	pendingIncoming map[bt.BDADDR]bool
	// Handles with an authentication in flight (for timeout correlation).
	authPending map[bt.ConnHandle]bool
	// Last link key sighted per peer (reply or notification) and last
	// *notified* key type per peer — the change/downgrade baselines. These
	// survive disconnects deliberately: the interesting replacement is the
	// one that happens on a later connection.
	lastKey     map[bt.BDADDR]bt.LinkKey
	lastKeyType map[bt.BDADDR]bt.LinkKeyType
	// frame/ts describe the record currently being applied; emit stamps
	// them onto each finding.
	frame int
	ts    time.Time
	// onFinding, when set, observes each finding as it is appended to the
	// report — the Detector's live event hook.
	onFinding func(Finding)
}

func newSessionState() *sessionState {
	return &sessionState{
		rep:             &Report{},
		byHandle:        make(map[bt.ConnHandle]*Session),
		byPeer:          make(map[bt.BDADDR]*Session),
		pendingIncoming: make(map[bt.BDADDR]bool),
		authPending:     make(map[bt.ConnHandle]bool),
		lastKey:         make(map[bt.BDADDR]bt.LinkKey),
		lastKeyType:     make(map[bt.BDADDR]bt.LinkKeyType),
	}
}

// emit appends one finding to the report, stamped with the frame that
// completed it, and forwards it to the live hook if one is installed.
func (st *sessionState) emit(f Finding) {
	f.Frame = st.frame
	st.rep.Findings = append(st.rep.Findings, f)
	if st.onFinding != nil {
		st.onFinding(f)
	}
}

// exposure records one plaintext link key sighting and raises its
// finding immediately.
func (st *sessionState) exposure(source string, peer bt.BDADDR, key bt.LinkKey) {
	st.rep.Exposures = append(st.rep.Exposures, KeyExposure{
		Frame: st.frame, Source: source, Peer: peer, Key: key,
	})
	// Built by concatenation rather than fmt.Sprintf: exposures are the
	// most common finding by far and this runs inside the hot ingest loop.
	st.emit(Finding{
		Kind:   FindingKeyExposure,
		Peer:   peer,
		Detail: "frame " + strconv.Itoa(st.frame) + ": 128-bit link key in plaintext via " + source,
	})
}

// checkPageBlocking raises the page-blocking finding the moment a
// session's signature completes (incoming connection + local pairing
// initiation + NoInputNoOutput peer). The flag keeps it one-shot: the
// signature elements can arrive in any order, and each later element
// re-runs the check.
func (st *sessionState) checkPageBlocking(s *Session) {
	if s == nil || s.flaggedPageBlocking {
		return
	}
	if s.Incoming && s.LocalPairingInitiation && s.HavePeerIOCap && s.PeerIOCap == bt.NoInputNoOutput {
		s.flaggedPageBlocking = true
		st.emit(Finding{
			Kind: FindingPageBlocking,
			Peer: s.Peer,
			Detail: "pairing initiated locally over an incoming connection whose initiator " +
				"claims NoInputNoOutput (the Fig. 12b signature)",
			Session: s,
		})
	}
}

// apply folds one decoded message (a typed *hci.Command or *hci.Event
// from decodeRecord) into the session state. frame is the record's
// 1-based capture position, ts its timestamp.
func (st *sessionState) apply(frame int, ts time.Time, msg any) {
	st.frame, st.ts = frame, ts
	rep := st.rep
	switch m := msg.(type) {
	case *hci.AcceptConnectionRequest:
		st.pendingIncoming[m.Addr] = true
	case *hci.AuthenticationRequested:
		if s := st.byHandle[m.Handle]; s != nil {
			s.LocalPairingInitiation = true
			st.authPending[m.Handle] = true
			st.checkPageBlocking(s)
		}
	case *hci.LinkKeyRequestReply:
		st.exposure(hci.OpLinkKeyRequestReply.String(), m.Addr, m.Key)
		st.lastKey[m.Addr] = m.Key
		if s := st.byPeer[m.Addr]; s != nil {
			s.suppliedStoredKey = true
		}

	case *hci.ConnectionComplete:
		if m.Status != hci.StatusSuccess {
			// A failed completion still consumes the pending accept:
			// leaving it would misflag a later outgoing session to the
			// same peer as incoming (a false page-blocking signature).
			delete(st.pendingIncoming, m.Addr)
			return
		}
		s := &Session{
			Handle:      m.Handle,
			Peer:        m.Addr,
			Incoming:    st.pendingIncoming[m.Addr],
			ConnectedAt: ts,
		}
		delete(st.pendingIncoming, m.Addr)
		st.byHandle[m.Handle] = s
		st.byPeer[m.Addr] = s
		rep.Sessions = append(rep.Sessions, s)
	case *hci.IOCapabilityResponse:
		if s := st.byPeer[m.Addr]; s != nil {
			s.PeerIOCap = m.Capability
			s.HavePeerIOCap = true
			st.checkPageBlocking(s)
		}
	case *hci.SimplePairingComplete:
		if s := st.byPeer[m.Addr]; s != nil {
			s.PairingCompleted = m.Status == hci.StatusSuccess
			s.PairingStatus = m.Status
			if s.PairingCompleted && s.suppliedStoredKey && !s.flaggedSilentRepair {
				s.flaggedSilentRepair = true
				st.emit(Finding{
					Kind: FindingSilentRepairing,
					Peer: s.Peer,
					Detail: "full pairing completed on a session whose peer was already answered " +
						"with a stored link key — silent automatic re-pairing (Stealtooth signature)",
					Session: s,
				})
			}
		}
	case *hci.AuthenticationComplete:
		if s := st.byHandle[m.Handle]; s != nil {
			s.AuthOutcomes = append(s.AuthOutcomes, m.Status)
			delete(st.authPending, m.Handle)
		}
	case *hci.LinkKeyNotification:
		st.exposure(hci.EvLinkKeyNotification.String(), m.Addr, m.Key)
		if prev, ok := st.lastKey[m.Addr]; ok && prev != m.Key {
			st.emit(Finding{
				Kind: FindingSilentKeyChange,
				Peer: m.Addr,
				Detail: "link key for " + m.Addr.String() + " replaced within one capture " +
					"(previous sighting differs) — stored-key overwrite signature",
				Session: st.byPeer[m.Addr],
			})
		}
		if prevT, ok := st.lastKeyType[m.Addr]; ok &&
			isAuthenticatedKeyType(prevT) && !isAuthenticatedKeyType(m.KeyType) {
			st.emit(Finding{
				Kind: FindingKeyTypeDowngrade,
				Peer: m.Addr,
				Detail: "key type for " + m.Addr.String() + " downgraded from " + prevT.String() +
					" to " + m.KeyType.String() + " — MITM protection lost (BLURtooth-style downgrade)",
				Session: st.byPeer[m.Addr],
			})
		}
		st.lastKey[m.Addr] = m.Key
		st.lastKeyType[m.Addr] = m.KeyType
	case *hci.DisconnectionComplete:
		if s := st.byHandle[m.Handle]; s != nil {
			s.Disconnected = true
			s.DisconnectReason = m.Reason
			s.EndsAt = ts
			delete(st.byHandle, m.Handle)
			if st.byPeer[s.Peer] == s {
				delete(st.byPeer, s.Peer)
			}
			if st.authPending[s.Handle] && isTimeout(m.Reason) {
				st.emit(Finding{
					Kind: FindingStalledAuthTimeout,
					Peer: s.Peer,
					Detail: fmt.Sprintf(
						"authentication on handle 0x%04x never completed; link dropped with %s — the trace a link key extraction stall leaves behind",
						uint16(s.Handle), m.Reason),
					Session: s,
				})
			}
			delete(st.authPending, s.Handle)
		}
	}
}

// finish returns the report. Every finding has already been emitted by
// apply — detection is fully incremental, so end-of-capture adds nothing.
func (st *sessionState) finish() *Report {
	return st.rep
}

// wantEvents is the skip-parse prefilter table: the six event codes the
// session reducer consumes, indexed by the event-code byte, so batch
// classification of the dominant irrelevant-event case is one branch and
// one table load.
var wantEvents = buildEventTable()

func buildEventTable() (t [256]bool) {
	for _, e := range []hci.EventCode{
		hci.EvConnectionComplete, hci.EvIOCapabilityResponse, hci.EvSimplePairingComplete,
		hci.EvAuthenticationComplete, hci.EvLinkKeyNotification, hci.EvDisconnectionComplete,
	} {
		t[byte(e)] = true
	}
	return t
}

// RelevantRecord classifies one raw H4 record before any copy or typed
// parse: only the three command opcodes and six event codes the session
// reducer consumes pass. Everything else — ACL data above all, plus
// unrelated commands and events — is dismissed on the indicator octet
// and at most one opcode/event-code peek, with zero allocation. This is
// the batch pipeline's first gate; in a realistic capture it retires
// ~99% of records.
func RelevantRecord(raw []byte) bool {
	pt, ok := hci.PeekPacketType(raw)
	if !ok {
		return false
	}
	switch pt {
	case hci.PTCommand:
		op, ok := hci.PeekCommandOpcode(raw)
		return ok && (op == hci.OpAcceptConnectionRequest ||
			op == hci.OpAuthenticationRequested ||
			op == hci.OpLinkKeyRequestReply)
	case hci.PTEvent:
		code, ok := hci.PeekEventCode(raw)
		return ok && wantEvents[byte(code)]
	}
	return false
}

// decodeRelevant fully parses a record that passed RelevantRecord. The
// borrow-parse never copies the body; the typed results copy the fields
// they keep, so nothing of raw is retained.
func decodeRelevant(dir hci.Direction, raw []byte) any {
	pkt, err := hci.ParseWireBorrow(dir, raw)
	if err != nil {
		return nil
	}
	if pkt.PT == hci.PTCommand {
		cmd, err := hci.ParseCommand(pkt)
		if err != nil {
			return nil
		}
		return cmd
	}
	evt, err := hci.ParseEvent(pkt)
	if err != nil {
		return nil
	}
	return evt
}

// decodeRecord classifies one raw H4 record and fully parses only the
// packet kinds the reducer consumes, returning nil for everything else.
func decodeRecord(dir hci.Direction, raw []byte) any {
	if !RelevantRecord(raw) {
		return nil
	}
	return decodeRelevant(dir, raw)
}

func recordDir(rec snoop.Record) hci.Direction {
	if rec.Received() {
		return hci.DirControllerToHost
	}
	return hci.DirHostToController
}

// Analyze reconstructs sessions and findings from capture records. It is
// a thin wrapper over the incremental Detector, so batch analysis and
// live detection are bit-identical by construction. It is the
// record-at-a-time reference the batch entries are tested against.
func Analyze(records []snoop.Record) *Report {
	d := NewDetector()
	for _, rec := range records {
		d.Push(rec)
	}
	return d.Finish()
}

// AnalyzeBatch reconstructs sessions and findings from a btsnoop stream
// in bounded memory: block scanning (snoop.BatchScanner) with the
// RelevantRecord prefilter inside the sweep, feeding PushKept. The
// report is bit-identical to Analyze over the same records. This is the
// path hcidump -analyze runs.
func AnalyzeBatch(r io.Reader) (*Report, error) {
	return analyzeBatches(snoop.NewBatchScannerSize(r, 256<<10))
}

// AnalyzeBytes is AnalyzeBatch for a capture already in memory: records
// are decoded aliasing data directly, with no copies at all.
func AnalyzeBytes(data []byte) (*Report, error) {
	return analyzeBatches(snoop.NewBatchScannerBytes(data))
}

func analyzeBatches(sc *snoop.BatchScanner) (*Report, error) {
	// No live-event hook: batch analysis reads findings from the report,
	// so buffering Events nobody drains would only add churn. The ~97% of
	// records the reducer ignores are never even materialized; the few
	// that survive carry their absolute frame numbers in b.Frames.
	d := &Detector{st: newSessionState()}
	var b snoop.RecordBatch
	for sc.ScanBatchKeep(&b, RelevantRecord) {
		d.PushKept(b.Frames, b.Records)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("forensics: parsing capture: %w", err)
	}
	return d.Finish(), nil
}

func isTimeout(s hci.Status) bool {
	return s == hci.StatusLMPResponseTimeout || s == hci.StatusConnectionTimeout
}

// isAuthenticatedKeyType reports whether a link key type carries MITM
// protection.
func isAuthenticatedKeyType(t bt.LinkKeyType) bool {
	return t == bt.KeyTypeAuthenticatedP192 || t == bt.KeyTypeAuthenticatedP256
}

// HasFinding reports whether the report contains a finding of the kind.
func (r *Report) HasFinding(kind string) bool {
	for _, f := range r.Findings {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

// Render formats the report for terminal display.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "forensic report: %d sessions, %d key exposures, %d findings\n",
		len(r.Sessions), len(r.Exposures), len(r.Findings))
	for _, s := range r.Sessions {
		role := "outgoing"
		if s.Incoming {
			role = "incoming"
		}
		end := "open"
		if s.Disconnected {
			end = s.DisconnectReason.String()
		}
		fmt.Fprintf(&b, "  session 0x%04x peer %s %s, pairing-init=%v, end=%s\n",
			uint16(s.Handle), s.Peer, role, s.LocalPairingInitiation, end)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  [%s] frame %d peer %s: %s\n", f.Kind, f.Frame, f.Peer, f.Detail)
	}
	return b.String()
}
