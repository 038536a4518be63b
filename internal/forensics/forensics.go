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
//
// A Detector keeps the batch Report as it goes, so its memory grows with
// the capture. NewLiveDetector is the mode for a consumer that reads
// findings only from Drain and runs for days, as blapd does: it records
// no exposures or findings, and keeps only the sessions a future record
// can still reach through the handle and peer tables, plus a bounded
// slack that is compacted away in amortized O(1) per session. Its state
// is then bounded by the live set (open connections, pending accepts and
// authentications, one key baseline per peer seen), not by the length of
// the stream. It emits the same events a full Detector emits.
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
//
// A finding comes in two forms. The detector's events carry the fields
// its text is built from (Source, Handle, Reason, PrevKeyType, KeyType)
// and leave Detail empty, so the reducer builds no strings on its hot
// path; the text is rendered where it is written, by AppendDetail. A
// Report's findings carry the rendered Detail instead, with those fields
// zero, which is what the batch consumers and the checkpoint codec read.
type Finding struct {
	Kind    string
	Frame   int
	Peer    bt.BDADDR
	Detail  string
	Session *Session

	// Source names the HCI message that carried a plaintext key
	// (FindingKeyExposure).
	Source string
	// Handle and Reason are the dropped connection and its disconnect
	// reason (FindingStalledAuthTimeout).
	Handle bt.ConnHandle
	Reason hci.Status
	// PrevKeyType and KeyType are the replaced and the new key type
	// (FindingKeyTypeDowngrade).
	PrevKeyType, KeyType bt.LinkKeyType
}

// AppendDetail appends the finding's human-readable text to b: Detail
// when it is set (a Report's finding), otherwise the text rendered from
// the structured fields, byte for byte what Detail holds for the same
// finding in a Report. TestFindingDetailText pins every kind's text.
func (f Finding) AppendDetail(b []byte) []byte {
	if f.Detail != "" {
		return append(b, f.Detail...)
	}
	switch f.Kind {
	case FindingKeyExposure:
		b = append(b, "frame "...)
		b = strconv.AppendInt(b, int64(f.Frame), 10)
		b = append(b, ": 128-bit link key in plaintext via "...)
		return append(b, f.Source...)
	case FindingPageBlocking:
		return append(b, "pairing initiated locally over an incoming connection whose initiator "+
			"claims NoInputNoOutput (the Fig. 12b signature)"...)
	case FindingSilentRepairing:
		return append(b, "full pairing completed on a session whose peer was already answered "+
			"with a stored link key — silent automatic re-pairing (Stealtooth signature)"...)
	case FindingSilentKeyChange:
		b = append(b, "link key for "...)
		b, _ = f.Peer.AppendText(b)
		return append(b, " replaced within one capture "+
			"(previous sighting differs) — stored-key overwrite signature"...)
	case FindingKeyTypeDowngrade:
		b = append(b, "key type for "...)
		b, _ = f.Peer.AppendText(b)
		b = append(b, " downgraded from "...)
		b = append(b, f.PrevKeyType.String()...)
		b = append(b, " to "...)
		b = append(b, f.KeyType.String()...)
		return append(b, " — MITM protection lost (BLURtooth-style downgrade)"...)
	case FindingStalledAuthTimeout:
		const hex = "0123456789abcdef"
		h := uint16(f.Handle)
		b = append(b, "authentication on handle 0x"...)
		b = append(b, hex[h>>12], hex[h>>8&0xf], hex[h>>4&0xf], hex[h&0xf])
		b = append(b, " never completed; link dropped with "...)
		b = append(b, f.Reason.String()...)
		return append(b, " — the trace a link key extraction stall leaves behind"...)
	}
	return b
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
// decoded HCI messages in capture order; because its input is a pure
// function of each record, feeding it from a record loop, a prefiltered
// batch scan, or a live socket yields bit-identical reports. Findings
// are emitted the moment the last record completing them is applied —
// never deferred to end-of-capture — which is what lets the Detector
// surface them while a capture is still being written.
//
// Its lookup state is two integer-keyed tables, so every record costs at
// most a few fast-path map operations: handles (a connection handle's
// session and pending authentication) and peers (an address's latest
// session, pending inbound accept and key baselines). An entry is
// deleted once it holds nothing.
//
// Sessions are carved from chunks of sessionChunk, and a session's first
// AuthOutcomes element from chunks of outcomeChunk, so a connection
// allocates nothing of its own. The trade-off in live mode: a chunk
// stays reachable while any session carved from it is, so one
// long-lived connection can pin a session chunk and an outcome chunk,
// about 7 KiB, after its neighbours were trimmed away.
type sessionState struct {
	rep     *Report
	handles map[uint32]handleSlot
	peers   map[uint64]*peerState
	// handleSessions and peerSessions count the entries of each table
	// that reference a session: trim's bound is over those, not over
	// entries that only hold a pending authentication or a key baseline.
	handleSessions, peerSessions int
	// sessionArena and outcomeArena are what is left of the current
	// chunks; newSession and newOutcomes carve from their fronts.
	sessionArena []Session
	outcomeArena []hci.Status
	// frame/ts describe the record currently being applied; emit stamps
	// them onto each finding.
	frame int
	ts    time.Time
	// onFinding, when set, observes each finding as it is emitted — the
	// Detector's live event hook.
	onFinding func(Finding)
	// live keeps no batch report: emit and exposure only forward, and
	// rep.Sessions is trimmed to the sessions the tables reach.
	live bool
	// text is the reused buffer emit renders a report finding's Detail
	// into.
	text []byte
}

// handleSlot is the handles table's entry for one connection handle.
// The pending authentication belongs to the handle, not to the session:
// a handle reused without a disconnect keeps it, so a timeout on the new
// connection still reads as a stalled authentication
// (TestHandleReuseWithoutDisconnect).
type handleSlot struct {
	session     *Session
	authPending bool // HCI_Authentication_Requested not yet completed
}

// peerState is the peers table's entry for one address. The key
// baselines survive disconnects deliberately: the interesting
// replacement is the one that happens on a later connection.
type peerState struct {
	session *Session // latest session
	// pendingIncoming: the connection arrived inbound but has no handle
	// yet.
	pendingIncoming bool
	// lastKey is the last link key sighted (reply or notification),
	// lastKeyType the last *notified* key type — the change and downgrade
	// baselines.
	lastKey              bt.LinkKey
	lastKeyType          bt.LinkKeyType
	haveKey, haveKeyType bool
}

func (p *peerState) empty() bool {
	return p.session == nil && !p.pendingIncoming && !p.haveKey && !p.haveKeyType
}

// peerKey packs an address big-endian, a[0] most significant, so the
// numeric order of keys is the bytes.Compare order of addresses the
// checkpoint's sorted sections are written in.
func peerKey(a bt.BDADDR) uint64 {
	return uint64(a[0])<<40 | uint64(a[1])<<32 | uint64(a[2])<<24 | uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
}

// Arena chunk sizes: 64 sessions (~6.5 KiB) and 512 one-byte outcomes.
const (
	sessionChunk = 64
	outcomeChunk = 512
)

func newSessionState() *sessionState {
	return &sessionState{
		rep:     &Report{},
		handles: make(map[uint32]handleSlot),
		peers:   make(map[uint64]*peerState),
	}
}

// newSession carves a zero Session from the current chunk.
func (st *sessionState) newSession() *Session {
	if len(st.sessionArena) == 0 {
		st.sessionArena = make([]Session, sessionChunk)
	}
	s := &st.sessionArena[0]
	st.sessionArena = st.sessionArena[1:]
	return s
}

// newOutcomes carves an empty one-element-capacity slice from the
// current outcome chunk: a session's first outcome lands in it, and a
// second append reallocates rather than writing into a neighbour's.
func (st *sessionState) newOutcomes() []hci.Status {
	if len(st.outcomeArena) == 0 {
		st.outcomeArena = make([]hci.Status, outcomeChunk)
	}
	o := st.outcomeArena[:0:1]
	st.outcomeArena = st.outcomeArena[1:]
	return o
}

// peer returns the peers table's entry for a, creating it.
func (st *sessionState) peer(a bt.BDADDR) *peerState {
	k := peerKey(a)
	p := st.peers[k]
	if p == nil {
		p = &peerState{}
		st.peers[k] = p
	}
	return p
}

// putHandle stores a handle's slot, or deletes it once it holds nothing.
func (st *sessionState) putHandle(k uint32, slot handleSlot) {
	if slot.session == nil && !slot.authPending {
		delete(st.handles, k)
		return
	}
	st.handles[k] = slot
}

// emit stamps one structured finding with the frame that completed it
// and forwards it to the live hook if one is installed. Unless live, it
// also appends the finding to the report in the report's form: Detail
// rendered, the structured fields dropped.
func (st *sessionState) emit(f Finding) {
	f.Frame = st.frame
	if !st.live {
		st.text = f.AppendDetail(st.text[:0])
		st.rep.Findings = append(st.rep.Findings, Finding{
			Kind: f.Kind, Frame: f.Frame, Peer: f.Peer, Detail: string(st.text), Session: f.Session,
		})
	}
	if st.onFinding != nil {
		st.onFinding(f)
	}
}

// exposure records one plaintext link key sighting (unless live) and
// raises its finding immediately.
func (st *sessionState) exposure(source string, peer bt.BDADDR, key bt.LinkKey) {
	if !st.live {
		st.rep.Exposures = append(st.rep.Exposures, KeyExposure{
			Frame: st.frame, Source: source, Peer: peer, Key: key,
		})
	}
	st.emit(Finding{Kind: FindingKeyExposure, Peer: peer, Source: source})
}

// liveSessions returns the sessions a future record can still reach:
// the reducer finds sessions only through the two tables. A filter over
// it compares pointers and never touches the sessions themselves, which
// matters when the list is a full report's.
func (st *sessionState) liveSessions() map[*Session]bool {
	keep := make(map[*Session]bool, st.handleSessions+st.peerSessions)
	for _, slot := range st.handles {
		if slot.session != nil {
			keep[slot.session] = true
		}
	}
	for _, p := range st.peers {
		if p.session != nil {
			keep[p.session] = true
		}
	}
	return keep
}

// trim bounds a live reducer's session list by its live set. Once the
// list passes twice the larger count of table entries referencing a
// session, plus 64, it is compacted in place, in report order, to the
// sessions still reachable. The slack keeps this amortized O(1) per
// session: when open sessions sit in both tables, as they do unless a
// handle or peer is reused without a disconnect, the list must grow by
// more than its compacted length before the next compaction.
func (st *sessionState) trim() {
	ss := st.rep.Sessions
	if !st.live || len(ss) <= 2*max(st.handleSessions, st.peerSessions)+64 {
		return
	}
	keep := st.liveSessions()
	n := 0
	for _, s := range ss {
		if keep[s] {
			ss[n] = s
			n++
		}
	}
	clear(ss[n:])
	st.rep.Sessions = ss[:n]
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
		st.emit(Finding{Kind: FindingPageBlocking, Peer: s.Peer, Session: s})
	}
}

// apply folds one decoded message into the session state. frame is the
// record's 1-based capture position, ts its timestamp.
func (st *sessionState) apply(frame int, ts time.Time, m *hciMsg) {
	st.frame, st.ts = frame, ts
	switch m.kind {
	case msgAcceptConnection:
		st.peer(m.addr).pendingIncoming = true
	case msgAuthRequested:
		k := uint32(m.handle)
		if slot := st.handles[k]; slot.session != nil {
			slot.session.LocalPairingInitiation = true
			slot.authPending = true
			st.handles[k] = slot
			st.checkPageBlocking(slot.session)
		}
	case msgLinkKeyReply:
		st.exposure(hci.OpLinkKeyRequestReply.String(), m.addr, m.key)
		p := st.peer(m.addr)
		p.lastKey, p.haveKey = m.key, true
		if p.session != nil {
			p.session.suppliedStoredKey = true
		}

	case msgConnectionComplete:
		if m.status != hci.StatusSuccess {
			// A failed completion still consumes the pending accept:
			// leaving it would misflag a later outgoing session to the
			// same peer as incoming (a false page-blocking signature).
			k := peerKey(m.addr)
			if p := st.peers[k]; p != nil && p.pendingIncoming {
				p.pendingIncoming = false
				if p.empty() {
					delete(st.peers, k)
				}
			}
			return
		}
		p := st.peer(m.addr)
		s := st.newSession()
		*s = Session{
			Handle:      m.handle,
			Peer:        m.addr,
			Incoming:    p.pendingIncoming,
			ConnectedAt: ts,
		}
		p.pendingIncoming = false
		if p.session == nil {
			st.peerSessions++
		}
		p.session = s
		k := uint32(m.handle)
		slot := st.handles[k]
		if slot.session == nil {
			st.handleSessions++
		}
		slot.session = s
		st.handles[k] = slot
		st.rep.Sessions = append(st.rep.Sessions, s)
		st.trim()
	case msgIOCapResponse:
		if p := st.peers[peerKey(m.addr)]; p != nil && p.session != nil {
			s := p.session
			s.PeerIOCap = m.ioCap
			s.HavePeerIOCap = true
			st.checkPageBlocking(s)
		}
	case msgPairingComplete:
		if p := st.peers[peerKey(m.addr)]; p != nil && p.session != nil {
			s := p.session
			s.PairingCompleted = m.status == hci.StatusSuccess
			s.PairingStatus = m.status
			if s.PairingCompleted && s.suppliedStoredKey && !s.flaggedSilentRepair {
				s.flaggedSilentRepair = true
				st.emit(Finding{Kind: FindingSilentRepairing, Peer: s.Peer, Session: s})
			}
		}
	case msgAuthComplete:
		k := uint32(m.handle)
		if slot := st.handles[k]; slot.session != nil {
			s := slot.session
			if cap(s.AuthOutcomes) == 0 {
				s.AuthOutcomes = st.newOutcomes()
			}
			s.AuthOutcomes = append(s.AuthOutcomes, m.status)
			if slot.authPending {
				slot.authPending = false
				st.handles[k] = slot
			}
		}
	case msgLinkKeyNotification:
		st.exposure(hci.EvLinkKeyNotification.String(), m.addr, m.key)
		p := st.peer(m.addr)
		if p.haveKey && p.lastKey != m.key {
			st.emit(Finding{Kind: FindingSilentKeyChange, Peer: m.addr, Session: p.session})
		}
		if p.haveKeyType && isAuthenticatedKeyType(p.lastKeyType) && !isAuthenticatedKeyType(m.keyType) {
			st.emit(Finding{
				Kind: FindingKeyTypeDowngrade, Peer: m.addr, Session: p.session,
				PrevKeyType: p.lastKeyType, KeyType: m.keyType,
			})
		}
		p.lastKey, p.haveKey = m.key, true
		p.lastKeyType, p.haveKeyType = m.keyType, true
	case msgDisconnection:
		k := uint32(m.handle)
		slot := st.handles[k]
		s := slot.session
		if s == nil {
			return
		}
		s.Disconnected = true
		s.DisconnectReason = m.reason
		s.EndsAt = ts
		slot.session = nil
		st.handleSessions--
		pk := peerKey(s.Peer)
		if p := st.peers[pk]; p != nil && p.session == s {
			p.session = nil
			st.peerSessions--
			if p.empty() {
				delete(st.peers, pk)
			}
		}
		if sk := uint32(s.Handle); sk != k {
			// Only a restored checkpoint can file a session under another
			// handle; the authentication that counts is the one pending on
			// the session's own handle.
			st.putHandle(k, slot)
			k, slot = sk, st.handles[sk]
		}
		if slot.authPending && isTimeout(m.reason) {
			st.emit(Finding{
				Kind: FindingStalledAuthTimeout, Peer: s.Peer, Session: s,
				Handle: s.Handle, Reason: m.reason,
			})
		}
		slot.authPending = false
		st.putHandle(k, slot)
		st.trim()
	}
}

// finish returns the report. Every finding has already been emitted by
// apply — detection is fully incremental, so end-of-capture adds nothing.
// A live reducer's report holds no exposures or findings, and only the
// sessions trim has not yet dropped.
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

// RelevantRecord classifies one raw H4 record before any copy or
// decode: only the three command opcodes and six event codes the session
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

// msgKind names which of the nine HCI messages the reducer consumes a
// kept record decoded to.
type msgKind uint8

const (
	msgNone                msgKind = iota
	msgAcceptConnection            // HCI_Accept_Connection_Request: addr
	msgAuthRequested               // HCI_Authentication_Requested: handle
	msgLinkKeyReply                // HCI_Link_Key_Request_Reply: addr, key
	msgConnectionComplete          // HCI_Connection_Complete: status, handle, addr
	msgIOCapResponse               // HCI_IO_Capability_Response: addr, ioCap
	msgPairingComplete             // HCI_Simple_Pairing_Complete: status, addr
	msgAuthComplete                // HCI_Authentication_Complete: status, handle
	msgLinkKeyNotification         // HCI_Link_Key_Notification: addr, key, keyType
	msgDisconnection               // HCI_Disconnection_Complete: status, handle, reason
)

// hciMsg is one kept record decoded in place: which consumed message it
// is and the fields the reducer reads from it. The push loops reuse one
// value for every record, so decoding builds no typed hci message and
// allocates nothing. A field the message does not carry (see the msgKind
// comments) keeps whatever an earlier record left there and is never
// read.
type hciMsg struct {
	kind    msgKind
	handle  bt.ConnHandle
	addr    bt.BDADDR
	key     bt.LinkKey
	status  hci.Status
	reason  hci.Status
	keyType bt.LinkKeyType
	ioCap   bt.IOCapability
}

// decode fills m from one raw H4 record and reports whether it is one of
// the nine messages the reducer consumes. It accepts and rejects exactly
// the records hci.ParseWireBorrow plus ParseCommand/ParseEvent accept
// and reject among those: the length octet must match the body, a
// parameter block shorter than the message means no record, and
// trailing parameter bytes are ignored. FuzzDecodeKept pins the parity.
func (m *hciMsg) decode(raw []byte) bool {
	switch {
	case len(raw) >= 4 && hci.PacketType(raw[0]) == hci.PTCommand:
		p := raw[4:]
		if int(raw[3]) != len(p) {
			return false
		}
		switch hci.Opcode(uint16(raw[1]) | uint16(raw[2])<<8) {
		case hci.OpAcceptConnectionRequest: // BD_ADDR, role
			if len(p) < 7 {
				return false
			}
			m.kind, m.addr = msgAcceptConnection, wireAddr(p)
		case hci.OpAuthenticationRequested: // handle
			if len(p) < 2 {
				return false
			}
			m.kind, m.handle = msgAuthRequested, wireHandle(p)
		case hci.OpLinkKeyRequestReply: // BD_ADDR, link key
			if len(p) < 22 {
				return false
			}
			m.kind, m.addr, m.key = msgLinkKeyReply, wireAddr(p), wireKey(p[6:])
		default:
			return false
		}
		return true
	case len(raw) >= 3 && hci.PacketType(raw[0]) == hci.PTEvent:
		p := raw[3:]
		if int(raw[2]) != len(p) {
			return false
		}
		switch hci.EventCode(raw[1]) {
		case hci.EvConnectionComplete: // status, handle, BD_ADDR, link type, encryption
			if len(p) < 11 {
				return false
			}
			m.kind, m.status, m.handle, m.addr = msgConnectionComplete, hci.Status(p[0]), wireHandle(p[1:]), wireAddr(p[3:])
		case hci.EvIOCapabilityResponse: // BD_ADDR, capability, OOB, auth requirements
			if len(p) < 9 {
				return false
			}
			m.kind, m.addr, m.ioCap = msgIOCapResponse, wireAddr(p), bt.IOCapability(p[6])
		case hci.EvSimplePairingComplete: // status, BD_ADDR
			if len(p) < 7 {
				return false
			}
			m.kind, m.status, m.addr = msgPairingComplete, hci.Status(p[0]), wireAddr(p[1:])
		case hci.EvAuthenticationComplete: // status, handle
			if len(p) < 3 {
				return false
			}
			m.kind, m.status, m.handle = msgAuthComplete, hci.Status(p[0]), wireHandle(p[1:])
		case hci.EvLinkKeyNotification: // BD_ADDR, link key, key type
			if len(p) < 23 {
				return false
			}
			m.kind, m.addr, m.key, m.keyType = msgLinkKeyNotification, wireAddr(p), wireKey(p[6:]), bt.LinkKeyType(p[22])
		case hci.EvDisconnectionComplete: // status, handle, reason
			if len(p) < 4 {
				return false
			}
			m.kind, m.status, m.handle, m.reason = msgDisconnection, hci.Status(p[0]), wireHandle(p[1:]), hci.Status(p[3])
		default:
			return false
		}
		return true
	}
	return false
}

// wireHandle, wireAddr and wireKey read the little-endian wire forms the
// hci typed parsers read: a connection handle, and an address or link
// key stored least-significant byte first.
func wireHandle(p []byte) bt.ConnHandle { return bt.ConnHandle(uint16(p[0]) | uint16(p[1])<<8) }

func wireAddr(p []byte) bt.BDADDR {
	return bt.BDADDR{p[5], p[4], p[3], p[2], p[1], p[0]}
}

func wireKey(p []byte) (k bt.LinkKey) {
	_ = p[15]
	for i := range k {
		k[i] = p[15-i]
	}
	return k
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
