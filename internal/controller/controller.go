// Package controller implements a simulated Bluetooth BR/EDR controller:
// the link controller (inquiry, paging, ACL links) and the link manager
// (LMP authentication with E1, Secure Simple Pairing, encryption start),
// driven through a standard HCI transport. It reproduces the spec-mandated
// behaviours the BLAP attacks rely on: the controller fetches link keys
// from the host over plaintext HCI before authenticating, an unanswered
// LMP challenge drops the link with a timeout rather than an
// authentication failure, and nothing verifies that the connection
// initiator is also the pairing initiator.
package controller

import (
	"math/rand"
	"time"

	"repro/internal/bt"
	"repro/internal/btcrypto"
	"repro/internal/hci"
	"repro/internal/radio"
	"repro/internal/sim"
)

// Config parameterizes a controller.
type Config struct {
	Addr bt.BDADDR
	COD  bt.ClassOfDevice
	Name string

	// LMPResponseTimeout bounds waits for LMP responses from the peer
	// (default 30 s, the specification value). When it expires the link is
	// detached with LMP Response Timeout — crucially not an authentication
	// failure, which is what keeps the victim accessory's stored key alive
	// during the link key extraction attack.
	LMPResponseTimeout time.Duration

	// SupervisionTimeout drops a link with Connection Timeout when no
	// traffic arrives for this long. Zero disables supervision.
	SupervisionTimeout time.Duration

	// MaxEncKeySize and MinEncKeySize bound the LMP encryption key size
	// negotiation in bytes. Defaults: max 16, min 1 (the pre-KNOB
	// specification floor; hardened stacks raise the minimum to 7).
	MaxEncKeySize int
	MinEncKeySize int

	// ARQRetransmitTimeout is the baseband ARQ base retransmission
	// timeout; each retry doubles it (deterministic, no jitter). Default
	// DefaultARQRetransmitTimeout.
	ARQRetransmitTimeout time.Duration

	// ARQMaxRetransmissions bounds retries per frame before the baseband
	// flushes it. Default DefaultARQMaxRetransmissions.
	ARQMaxRetransmissions int

	// FixedPasskey pins the passkey a display-side controller generates
	// during Passkey Entry instead of drawing a random one — modelling an
	// accessory with the passkey printed on a label, and letting an
	// attacker replay a recovered passkey.
	FixedPasskey *uint32

	// EnhancedPasskey enables the hardened Passkey Entry variant used as
	// the mitigation scenario: each round's commitment bit is masked with
	// a bit of the shared DH key, so a sniffer who recovers the per-round
	// Z values learns nothing about the passkey, and a non-enhanced MITM
	// cannot complete the rounds against an enhanced endpoint.
	EnhancedPasskey bool
}

// DefaultLMPResponseTimeout is the specification's LMP response timeout.
const DefaultLMPResponseTimeout = 30 * time.Second

func (c Config) withDefaults() Config {
	if c.LMPResponseTimeout <= 0 {
		c.LMPResponseTimeout = DefaultLMPResponseTimeout
	}
	if c.MaxEncKeySize <= 0 || c.MaxEncKeySize > 16 {
		c.MaxEncKeySize = 16
	}
	if c.MinEncKeySize <= 0 {
		c.MinEncKeySize = 1
	}
	if c.MinEncKeySize > c.MaxEncKeySize {
		c.MinEncKeySize = c.MaxEncKeySize
	}
	if c.ARQRetransmitTimeout <= 0 {
		c.ARQRetransmitTimeout = DefaultARQRetransmitTimeout
	}
	if c.ARQMaxRetransmissions <= 0 {
		c.ARQMaxRetransmissions = DefaultARQMaxRetransmissions
	}
	return c
}

type linkState int

const (
	linkPendingAccept linkState = iota // responder: waiting for host accept
	linkPendingRemote                  // initiator: waiting for ConnAcceptPDU
	linkOpen
)

type link struct {
	handle    bt.ConnHandle
	peer      bt.BDADDR
	peerInfo  radio.DeviceInfo
	phy       *radio.Link
	state     linkState
	initiator bool

	auth   *authState
	ssp    *sspState
	legacy *legacyState
	// crossChallenge stashes a peer's AuRandPDU that arrived while a
	// local authentication was already in flight (both sides acting as
	// verifier at once — a legal LMP collision); it is answered as soon
	// as the link key is in hand.
	crossChallenge *[16]byte

	// currentKey and aco cache the session's authentication material for
	// encryption key generation.
	currentKey bt.LinkKey
	haveKey    bool
	// e1ctx caches the SAFER+ key schedules for e1ctxKey so repeated
	// E1 authentications and E3 derivations under one bonded key skip
	// the schedule expansion (see btcrypto.E1Context).
	e1ctx         *btcrypto.E1Context
	e1ctxKey      bt.LinkKey
	aco           [12]byte
	encrypted     bool
	pendingEncist bool
	encKey        [16]byte // E3 output, shrunk to encKeySize
	encKeySize    int
	txClock       uint32
	pendingEncRnd [16]byte

	lmpTimer   *sim.Timer
	superTimer *sim.Timer
	arq        arqState
}

// Controller is one simulated BR/EDR controller instance.
type Controller struct {
	sched *sim.Scheduler
	cfg   Config
	tr    *hci.Transport
	med   *radio.Medium
	port  *radio.Port

	scanEnable hci.ScanEnable
	sspMode    bool
	kp         *btcrypto.KeyPair
	oobReady   bool
	oobRand    [16]byte

	links      map[bt.ConnHandle]*link
	nextHandle uint16
	inquiring  bool
}

// rngReader adapts the scheduler RNG to io.Reader for deterministic ECDH
// key generation.
type rngReader struct{ r *rand.Rand }

func (r rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.r.Intn(256))
	}
	return len(p), nil
}

// New creates a controller, attaches it to the medium, and registers it as
// the controller-side endpoint of tr.
func New(s *sim.Scheduler, med *radio.Medium, tr *hci.Transport, cfg Config) *Controller {
	c := &Controller{
		sched: s,
		cfg:   cfg.withDefaults(),
		tr:    tr,
		med:   med,
		links: make(map[bt.ConnHandle]*link),
	}
	kp, err := btcrypto.GenerateKeyPair(rngReader{s.Rand()})
	if err != nil {
		panic("controller: ECDH key generation cannot fail with rngReader: " + err.Error())
	}
	c.kp = kp
	c.port = med.Attach(c)
	tr.AttachController(c)
	return c
}

// Addr returns the controller's current BDADDR.
func (c *Controller) Addr() bt.BDADDR { return c.cfg.Addr }

// SetAddr changes the controller's BDADDR, modelling the persistent
// vendor address file (/persist/bdaddr.txt) the paper's attacker rewrites.
func (c *Controller) SetAddr(a bt.BDADDR) { c.cfg.Addr = a }

// SetCOD changes the advertised class of device, modelling the bt_target.h
// patch of the paper's Fig. 8.
func (c *Controller) SetCOD(cod bt.ClassOfDevice) { c.cfg.COD = cod }

// SetFixedPasskey pins (or, with nil, unpins) the passkey the controller
// will generate next time it plays the display side of Passkey Entry —
// the attacker's lever for replaying a sniffed fixed passkey.
func (c *Controller) SetFixedPasskey(p *uint32) { c.cfg.FixedPasskey = p }

// Detach removes the controller from the medium.
func (c *Controller) Detach() { c.med.Detach(c.port) }

// Reattach restores a previously detached controller to the medium,
// modelling recovery from a radio outage. Links do not survive the
// outage; the device must be re-paged.
func (c *Controller) Reattach() { c.med.Reattach(c.port) }

// --- radio.Receiver ---

// Info implements radio.Receiver.
func (c *Controller) Info() radio.DeviceInfo {
	return radio.DeviceInfo{Addr: c.cfg.Addr, COD: c.cfg.COD, Name: c.cfg.Name}
}

// InquiryScanEnabled implements radio.Receiver.
func (c *Controller) InquiryScanEnabled() bool { return c.scanEnable.InquiryScan() }

// PageScanEnabled implements radio.Receiver.
func (c *Controller) PageScanEnabled() bool { return c.scanEnable.PageScan() }

// AcceptPage implements radio.Receiver. Baseband always accepts; the host
// policy decides via Accept/Reject_Connection_Request.
func (c *Controller) AcceptPage(radio.DeviceInfo) bool { return true }

// LinkEstablished implements radio.Receiver (responder side of a page).
func (c *Controller) LinkEstablished(l *radio.Link, peer radio.DeviceInfo) {
	lk := &link{
		peer:     peer.Addr,
		peerInfo: peer,
		phy:      l,
		state:    linkPendingAccept,
	}
	c.trackLink(lk)
	c.tr.SendEvent(&hci.ConnectionRequest{Addr: peer.Addr, COD: peer.COD, LinkType: hci.LinkTypeACL})
}

// LinkData implements radio.Receiver. Any received frame — data or pure
// ack — proves radio contact and refreshes the supervision timer; only
// in-order ARQ delivery reaches the LMP state machines.
func (c *Controller) LinkData(l *radio.Link, payload any) {
	lk := c.findByPhy(l)
	if lk == nil {
		return
	}
	c.touchSupervision(lk)
	switch f := payload.(type) {
	case BBAck:
		c.arqAcked(lk, f.Ack)
	case BBFrame:
		c.arqAcked(lk, f.Ack)
		c.arqReceive(lk, f)
	default:
		// Raw (non-ARQ) payloads keep working for tests that drive the
		// phy link directly.
		c.handleLMP(lk, payload)
	}
}

// LinkClosed implements radio.Receiver.
func (c *Controller) LinkClosed(l *radio.Link, reason error) {
	lk := c.findByPhy(l)
	if lk == nil {
		return
	}
	status := hci.StatusConnectionTimeout
	if de, ok := reason.(detachError); ok {
		status = de.reason
	}
	c.dropLink(lk, status, true)
}

// detachError carries the peer's HCI reason through the radio layer.
type detachError struct{ reason hci.Status }

func (e detachError) Error() string { return "controller: detached: " + e.reason.String() }

// --- link bookkeeping ---

func (c *Controller) trackLink(lk *link) {
	c.nextHandle++
	lk.handle = bt.ConnHandle(c.nextHandle)
	c.links[lk.handle] = lk
	if c.cfg.SupervisionTimeout > 0 {
		lk.superTimer = sim.NewTimer(c.sched, func() {
			lk.phy.Close(c.port, detachError{hci.StatusConnectionTimeout})
			c.dropLink(lk, hci.StatusConnectionTimeout, true)
		})
		lk.superTimer.Start(c.cfg.SupervisionTimeout)
	}
}

func (c *Controller) touchSupervision(lk *link) {
	if lk.superTimer != nil {
		lk.superTimer.Start(c.cfg.SupervisionTimeout)
	}
}

func (c *Controller) findByPhy(l *radio.Link) *link {
	for _, lk := range c.links {
		if lk.phy == l {
			return lk
		}
	}
	return nil
}

func (c *Controller) findByAddr(a bt.BDADDR) *link {
	for _, lk := range c.links {
		if lk.peer == a {
			return lk
		}
	}
	return nil
}

// dropLink removes a link and notifies the host. notify=false suppresses
// the Disconnection_Complete event (used when the host itself commanded
// the disconnect and the event was already sent).
func (c *Controller) dropLink(lk *link, reason hci.Status, notify bool) {
	if _, ok := c.links[lk.handle]; !ok {
		return
	}
	delete(c.links, lk.handle)
	c.stopLinkTimers(lk)
	if !notify {
		return
	}
	switch lk.state {
	case linkOpen:
		c.tr.SendEvent(&hci.DisconnectionComplete{Status: hci.StatusSuccess, Handle: lk.handle, Reason: reason})
	case linkPendingRemote:
		c.tr.SendEvent(&hci.ConnectionComplete{Status: reason, Addr: lk.peer, LinkType: hci.LinkTypeACL})
	case linkPendingAccept:
		// The host never accepted; nothing to report.
	}
}

// stopLinkTimers quiesces everything armed on behalf of a link: LMP
// response, supervision, and outstanding ARQ retransmissions.
func (c *Controller) stopLinkTimers(lk *link) {
	if lk.lmpTimer != nil {
		lk.lmpTimer.Stop()
	}
	if lk.superTimer != nil {
		lk.superTimer.Stop()
	}
	c.arqDrop(lk)
}

// send transmits an LMP PDU through the baseband ARQ layer and
// optionally arms the LMP response timer.
func (c *Controller) send(lk *link, pdu any, expectResponse bool) {
	c.arqSend(lk, pdu)
	if expectResponse {
		c.armLMPTimer(lk)
	}
}

func (c *Controller) armLMPTimer(lk *link) {
	if lk.lmpTimer == nil {
		lk.lmpTimer = sim.NewTimer(c.sched, func() { c.lmpTimeout(lk) })
	}
	lk.lmpTimer.Start(c.cfg.LMPResponseTimeout)
}

func (c *Controller) stopLMPTimer(lk *link) {
	if lk.lmpTimer != nil {
		lk.lmpTimer.Stop()
	}
}

// lmpTimeout fires when the peer failed to answer an LMP PDU in time: the
// link is detached with LMP Response Timeout. The session ends without an
// authentication failure, so a bonded peer's stored link key survives —
// the property step 5 of the link key extraction attack depends on.
func (c *Controller) lmpTimeout(lk *link) {
	lk.phy.Close(c.port, detachError{hci.StatusLMPResponseTimeout})
	c.dropLink(lk, hci.StatusLMPResponseTimeout, true)
}

// --- hci.Endpoint ---

// HandlePacket processes host-to-controller traffic.
func (c *Controller) HandlePacket(p hci.Packet) {
	switch p.PT {
	case hci.PTCommand:
		cmd, err := hci.ParseCommand(p)
		if err != nil {
			return
		}
		c.handleCommand(cmd)
	case hci.PTACLData:
		handle, data, ok := hci.ParseACL(p)
		if !ok {
			return
		}
		if lk, ok := c.links[handle]; ok && lk.state == linkOpen {
			c.touchSupervision(lk)
			pdu := ACLPDU{Data: append([]byte(nil), data...)}
			if lk.encrypted {
				lk.txClock++
				pdu.Encrypted = true
				pdu.Clock = lk.txClock
				pdu.Data = btcrypto.EncryptPayload(lk.encKey, c.masterAddr(lk), pdu.Clock, pdu.Data)
			}
			c.send(lk, pdu, false)
		}
	}
}

func (c *Controller) commandComplete(op hci.Opcode, ret ...byte) {
	c.tr.SendEvent(&hci.CommandComplete{NumPackets: 1, CommandOpcode: op, ReturnParams: ret})
}

func (c *Controller) commandStatus(op hci.Opcode, st hci.Status) {
	c.tr.SendEvent(&hci.CommandStatus{Status: st, NumPackets: 1, CommandOpcode: op})
}

func (c *Controller) handleCommand(cmd hci.Command) {
	switch v := cmd.(type) {
	case *hci.Reset:
		for _, lk := range c.links {
			lk.phy.Close(c.port, detachError{hci.StatusConnTerminatedLocally})
			c.dropLink(lk, hci.StatusConnTerminatedLocally, false)
		}
		c.scanEnable = hci.ScanOff
		c.inquiring = false
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))

	case *hci.WriteScanEnable:
		c.scanEnable = v.ScanEnable
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))

	case *hci.WriteClassOfDevice:
		c.cfg.COD = v.COD
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))

	case *hci.WriteLocalName:
		c.cfg.Name = v.Name
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))

	case *hci.WriteSimplePairingMode:
		c.sspMode = v.Enabled
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))

	case *hci.ReadBDADDR:
		le := c.cfg.Addr.LittleEndian()
		ret := append([]byte{byte(hci.StatusSuccess)}, le[:]...)
		c.commandComplete(v.Opcode(), ret...)

	case *hci.Inquiry:
		if c.inquiring {
			c.commandStatus(v.Opcode(), hci.StatusConnectionAlreadyExists)
			return
		}
		c.inquiring = true
		c.commandStatus(v.Opcode(), hci.StatusSuccess)
		dur := time.Duration(v.InquiryLength) * c.med.Config().InquiryUnit
		c.med.StartInquiry(c.port, dur,
			func(res radio.InquiryResult) {
				if !c.inquiring {
					return
				}
				c.tr.SendEvent(&hci.InquiryResult{Responses: []hci.InquiryResponse{{
					Addr:        res.Info.Addr,
					COD:         res.Info.COD,
					ClockOffset: res.ClockOffset,
				}}})
			},
			func() {
				if !c.inquiring {
					return
				}
				c.inquiring = false
				c.tr.SendEvent(&hci.InquiryComplete{Status: hci.StatusSuccess})
			})

	case *hci.InquiryCancel:
		c.inquiring = false
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))

	case *hci.CreateConnection:
		if c.findByAddr(v.Addr) != nil {
			c.commandStatus(v.Opcode(), hci.StatusConnectionAlreadyExists)
			return
		}
		c.commandStatus(v.Opcode(), hci.StatusSuccess)
		c.med.Page(c.port, v.Addr, func(l *radio.Link, peer radio.DeviceInfo, err error) {
			if err != nil {
				c.tr.SendEvent(&hci.ConnectionComplete{Status: hci.StatusPageTimeout, Addr: v.Addr, LinkType: hci.LinkTypeACL})
				return
			}
			lk := &link{
				peer:      peer.Addr,
				peerInfo:  peer,
				phy:       l,
				state:     linkPendingRemote,
				initiator: true,
			}
			c.trackLink(lk)
			c.armLMPTimer(lk) // bound the wait for the responder host's accept
		})

	case *hci.AcceptConnectionRequest:
		lk := c.findByAddr(v.Addr)
		if lk == nil || lk.state != linkPendingAccept {
			c.commandStatus(v.Opcode(), hci.StatusUnknownConnectionID)
			return
		}
		c.commandStatus(v.Opcode(), hci.StatusSuccess)
		lk.state = linkOpen
		c.send(lk, ConnAcceptPDU{LTAddr: 1}, false)
		c.tr.SendEvent(&hci.ConnectionComplete{Status: hci.StatusSuccess, Handle: lk.handle, Addr: lk.peer, LinkType: hci.LinkTypeACL})

	case *hci.RejectConnectionRequest:
		lk := c.findByAddr(v.Addr)
		if lk == nil || lk.state != linkPendingAccept {
			c.commandStatus(v.Opcode(), hci.StatusUnknownConnectionID)
			return
		}
		c.commandStatus(v.Opcode(), hci.StatusSuccess)
		lk.phy.Close(c.port, detachError{v.Reason})
		c.dropLink(lk, v.Reason, false)

	case *hci.Disconnect:
		lk, ok := c.links[v.Handle]
		if !ok {
			c.commandStatus(v.Opcode(), hci.StatusUnknownConnectionID)
			return
		}
		c.commandStatus(v.Opcode(), hci.StatusSuccess)
		lk.phy.Close(c.port, detachError{v.Reason})
		delete(c.links, v.Handle)
		c.stopLinkTimers(lk)
		c.tr.SendEvent(&hci.DisconnectionComplete{Status: hci.StatusSuccess, Handle: v.Handle, Reason: hci.StatusConnTerminatedLocally})

	case *hci.PINCodeRequestReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostPINCode(v.Addr, v.PIN)

	case *hci.PINCodeRequestNegativeReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostPINDenied(v.Addr)

	case *hci.AuthenticationRequested:
		lk, ok := c.links[v.Handle]
		if !ok || lk.state != linkOpen {
			c.commandStatus(v.Opcode(), hci.StatusUnknownConnectionID)
			return
		}
		c.commandStatus(v.Opcode(), hci.StatusSuccess)
		c.startAuthentication(lk)

	case *hci.LinkKeyRequestReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostSuppliedKey(v.Addr, v.Key)

	case *hci.LinkKeyRequestNegativeReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostDeniedKey(v.Addr)

	case *hci.IOCapabilityRequestReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostIOCapability(v.Addr, v.Capability, v.OOBDataPresent, v.AuthRequirements)

	case *hci.UserConfirmationRequestReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostConfirmation(v.Addr, true)

	case *hci.UserConfirmationRequestNegativeReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostConfirmation(v.Addr, false)

	case *hci.UserPasskeyRequestReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostPasskey(v.Addr, v.Passkey, true)

	case *hci.UserPasskeyRequestNegativeReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostPasskey(v.Addr, 0, false)

	case *hci.ReadLocalOOBData:
		oob := c.localOOB()
		ret := append([]byte{byte(hci.StatusSuccess)}, oob.C[:]...)
		ret = append(ret, oob.R[:]...)
		c.commandComplete(v.Opcode(), ret...)

	case *hci.RemoteOOBDataRequestReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostOOBData(v.Addr, v.C, v.R, true)

	case *hci.RemoteOOBDataRequestNegativeReply:
		c.commandComplete(v.Opcode(), byte(hci.StatusSuccess))
		c.hostOOBData(v.Addr, [16]byte{}, [16]byte{}, false)

	case *hci.SetConnectionEncryption:
		lk, ok := c.links[v.Handle]
		if !ok || lk.state != linkOpen {
			c.commandStatus(v.Opcode(), hci.StatusUnknownConnectionID)
			return
		}
		c.commandStatus(v.Opcode(), hci.StatusSuccess)
		c.startEncryption(lk, v.Enable)

	case *hci.RemoteNameRequest:
		// Resolved from the medium identity directly; a real controller
		// would run a temporary connection for LMP_name_req.
		c.commandStatus(v.Opcode(), hci.StatusSuccess)
		name := ""
		if lk := c.findByAddr(v.Addr); lk != nil {
			name = lk.peerInfo.Name
		}
		c.tr.SendEvent(&hci.RemoteNameRequestComplete{Status: hci.StatusSuccess, Addr: v.Addr, Name: name})
	}
}

// rand16 draws a 16-byte random value from the deterministic source.
func (c *Controller) rand16() [16]byte {
	var v [16]byte
	for i := range v {
		v[i] = byte(c.sched.Rand().Intn(256))
	}
	return v
}

// handleLMP dispatches a peer PDU to the relevant state machine.
func (c *Controller) handleLMP(lk *link, payload any) {
	switch pdu := payload.(type) {
	case ConnAcceptPDU:
		if lk.state == linkPendingRemote {
			c.stopLMPTimer(lk)
			lk.state = linkOpen
			c.tr.SendEvent(&hci.ConnectionComplete{Status: hci.StatusSuccess, Handle: lk.handle, Addr: lk.peer, LinkType: hci.LinkTypeACL})
		}

	case DetachPDU:
		lk.phy.Close(c.port, detachError{pdu.Reason})
		c.dropLink(lk, pdu.Reason, true)

	case ACLPDU:
		if lk.state == linkOpen {
			data := pdu.Data
			if pdu.Encrypted {
				if !lk.encrypted {
					return // ciphertext on a link we have no key for
				}
				data = btcrypto.EncryptPayload(lk.encKey, c.masterAddr(lk), pdu.Clock, data)
			}
			c.tr.Send(hci.EncodeACL(hci.DirControllerToHost, lk.handle, data))
		}

	case AuRandPDU:
		c.onAuRand(lk, pdu)
	case SresPDU:
		c.onSres(lk, pdu)
	case NotAcceptedPDU:
		c.onNotAccepted(lk, pdu)

	case IOCapReqPDU:
		c.onIOCapReq(lk, pdu)
	case IOCapResPDU:
		c.onIOCapRes(lk, pdu)
	case PublicKeyPDU:
		c.onPublicKey(lk, pdu)
	case SSPConfirmPDU:
		c.onSSPConfirm(lk, pdu)
	case SSPNoncePDU:
		c.onSSPNonce(lk, pdu)
	case DHKeyCheckPDU:
		c.onDHKeyCheck(lk, pdu)
	case PasskeyCommitPDU:
		c.onPasskeyCommit(lk, pdu)
	case PasskeyNoncePDU:
		c.onPasskeyNonce(lk, pdu)

	case InRandPDU:
		c.onInRand(lk, pdu)
	case CombKeyPDU:
		c.onCombKey(lk, pdu)

	case EncStartPDU:
		c.onEncStart(lk, pdu)
	case EncAcceptPDU:
		c.onEncAccept(lk, pdu)
	}
}
