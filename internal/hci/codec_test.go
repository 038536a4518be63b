package hci

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/bt"
)

// allCommands returns one populated instance of every command type.
func allCommands() []Command {
	addr := bt.MustBDADDR("00:1a:7d:da:71:0a")
	key := bt.MustLinkKey("c4f16e949f04ee9c0fd6b1330289c324")
	return []Command{
		&Inquiry{LAP: GIAC, InquiryLength: 8, NumResponses: 0},
		&InquiryCancel{},
		&CreateConnection{Addr: addr, PacketTypes: 0xCC18, PageScanRepetitionMode: 1, ClockOffset: 0x1234, AllowRoleSwitch: 1},
		&Disconnect{Handle: 0x0006, Reason: StatusRemoteUserTerminated},
		&AcceptConnectionRequest{Addr: addr, Role: 1},
		&RejectConnectionRequest{Addr: addr, Reason: StatusConnTerminatedLocally},
		&LinkKeyRequestReply{Addr: addr, Key: key},
		&LinkKeyRequestNegativeReply{Addr: addr},
		&PINCodeRequestReply{Addr: addr, PIN: []byte("0000")},
		&PINCodeRequestNegativeReply{Addr: addr},
		&AuthenticationRequested{Handle: 0x0003},
		&SetConnectionEncryption{Handle: 0x0003, Enable: true},
		&RemoteNameRequest{Addr: addr, PageScanRepetitionMode: 2, ClockOffset: 7},
		&IOCapabilityRequestReply{Addr: addr, Capability: bt.NoInputNoOutput, OOBDataPresent: false, AuthRequirements: 0x03},
		&UserConfirmationRequestReply{Addr: addr},
		&UserConfirmationRequestNegativeReply{Addr: addr},
		&UserPasskeyRequestReply{Addr: addr, Passkey: 847912},
		&UserPasskeyRequestNegativeReply{Addr: addr},
		&RemoteOOBDataRequestReply{Addr: addr, C: [16]byte{1, 2, 3}, R: [16]byte{4, 5, 6}},
		&RemoteOOBDataRequestNegativeReply{Addr: addr},
		&ReadLocalOOBData{},
		&Reset{},
		&WriteLocalName{Name: "VELVET"},
		&WriteScanEnable{ScanEnable: ScanInquiryPage},
		&WriteClassOfDevice{COD: bt.CODHandsFree},
		&WriteSimplePairingMode{Enabled: true},
		&ReadBDADDR{},
	}
}

// allEvents returns one populated instance of every event type.
func allEvents() []Event {
	addr := bt.MustBDADDR("48:90:51:1e:7f:2c")
	key := bt.MustLinkKey("71a70981f30d6af9e20adee8aafe3264")
	return []Event{
		&InquiryComplete{Status: StatusSuccess},
		&InquiryResult{Responses: []InquiryResponse{
			{Addr: addr, PageScanRepetitionMode: 1, COD: bt.CODMobilePhone, ClockOffset: 0x4321},
			{Addr: bt.MustBDADDR("11:22:33:44:55:66"), COD: bt.CODHeadset},
		}},
		&ConnectionComplete{Status: StatusSuccess, Handle: 0x0006, Addr: addr, LinkType: LinkTypeACL, EncryptionEnabled: false},
		&ConnectionRequest{Addr: addr, COD: bt.CODHandsFree, LinkType: LinkTypeACL},
		&DisconnectionComplete{Status: StatusSuccess, Handle: 0x0006, Reason: StatusLMPResponseTimeout},
		&AuthenticationComplete{Status: StatusAuthenticationFailure, Handle: 0x0003},
		&RemoteNameRequestComplete{Status: StatusSuccess, Addr: addr, Name: "Galaxy s21"},
		&EncryptionChange{Status: StatusSuccess, Handle: 0x0003, Enabled: true},
		&CommandComplete{NumPackets: 1, CommandOpcode: OpReset, ReturnParams: []byte{0x00}},
		&CommandStatus{Status: StatusSuccess, NumPackets: 1, CommandOpcode: OpCreateConnection},
		&PINCodeRequest{Addr: addr},
		&LinkKeyRequest{Addr: addr},
		&LinkKeyNotification{Addr: addr, Key: key, KeyType: bt.KeyTypeUnauthenticatedP256},
		&IOCapabilityRequest{Addr: addr},
		&IOCapabilityResponse{Addr: addr, Capability: bt.DisplayYesNo, OOBDataPresent: true, AuthRequirements: 1},
		&UserConfirmationRequest{Addr: addr, NumericValue: 847912},
		&UserPasskeyRequest{Addr: addr},
		&UserPasskeyNotification{Addr: addr, Passkey: 428913},
		&RemoteOOBDataRequest{Addr: addr},
		&SimplePairingComplete{Status: StatusSuccess, Addr: addr},
	}
}

func TestCommandRoundTrip(t *testing.T) {
	for _, cmd := range allCommands() {
		pkt := EncodeCommand(cmd)
		if pkt.PT != PTCommand || pkt.Dir != DirHostToController {
			t.Fatalf("%T: bad packet framing", cmd)
		}
		reparsed, err := ParseWire(pkt.Dir, pkt.Wire())
		if err != nil {
			t.Fatalf("%T: ParseWire: %v", cmd, err)
		}
		got, err := ParseCommand(reparsed)
		if err != nil {
			t.Fatalf("%T: ParseCommand: %v", cmd, err)
		}
		// Round trip through the codec must preserve the value.
		b1 := EncodeCommand(cmd).Wire()
		b2 := EncodeCommand(got).Wire()
		if string(b1) != string(b2) {
			t.Fatalf("%T: round trip changed bytes\n  %x\n  %x", cmd, b1, b2)
		}
	}
}

func TestEventRoundTrip(t *testing.T) {
	for _, evt := range allEvents() {
		pkt := EncodeEvent(evt)
		if pkt.PT != PTEvent || pkt.Dir != DirControllerToHost {
			t.Fatalf("%T: bad packet framing", evt)
		}
		reparsed, err := ParseWire(pkt.Dir, pkt.Wire())
		if err != nil {
			t.Fatalf("%T: ParseWire: %v", evt, err)
		}
		got, err := ParseEvent(reparsed)
		if err != nil {
			t.Fatalf("%T: ParseEvent: %v", evt, err)
		}
		b1 := EncodeEvent(evt).Wire()
		b2 := EncodeEvent(got).Wire()
		if string(b1) != string(b2) {
			t.Fatalf("%T: round trip changed bytes\n  %x\n  %x", evt, b1, b2)
		}
	}
}

func TestLinkKeyReplyWirePrefix(t *testing.T) {
	// The paper's USB extraction keys off the exact wire prefix
	// 01 0b 04 16 (H4 command, opcode 0x040B little-endian, length 22).
	cmd := &LinkKeyRequestReply{
		Addr: bt.MustBDADDR("00:1a:7d:da:71:0a"),
		Key:  bt.MustLinkKey("c4f16e949f04ee9c0fd6b1330289c324"),
	}
	wire := EncodeCommand(cmd).Wire()
	if len(wire) != 4+22 {
		t.Fatalf("wire length %d, want 26", len(wire))
	}
	if wire[0] != 0x01 || wire[1] != 0x0b || wire[2] != 0x04 || wire[3] != 0x16 {
		t.Fatalf("prefix %x, want 010b0416", wire[:4])
	}
	// Address in little-endian follows the header.
	if wire[4] != 0x0a || wire[5] != 0x71 || wire[6] != 0xda {
		t.Fatalf("address bytes %x", wire[4:10])
	}
	// Key is carried least-significant byte first: last wire byte is the
	// key's first (big-endian) byte.
	if wire[25] != 0xc4 {
		t.Fatalf("key wire order wrong: last byte %x, want c4", wire[25])
	}
}

func TestParseWireRejectsCorruption(t *testing.T) {
	good := EncodeCommand(&Reset{}).Wire()
	if _, err := ParseWire(DirHostToController, nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty: %v", err)
	}
	if _, err := ParseWire(DirHostToController, []byte{0x09, 1, 2, 3}); !errors.Is(err, ErrBadPacketType) {
		t.Errorf("bad type: %v", err)
	}
	// Length mismatch.
	bad := append([]byte(nil), good...)
	bad[3] = 7 // claims 7 params, has 0
	if _, err := ParseWire(DirHostToController, bad); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length: %v", err)
	}
	// Truncated command header.
	if _, err := ParseWire(DirHostToController, []byte{0x01, 0x03}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}
	// Truncated event header.
	if _, err := ParseWire(DirControllerToHost, []byte{0x04}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short event: %v", err)
	}
}

func TestParseUnknownOpcodeAndEvent(t *testing.T) {
	pkt := Packet{Dir: DirHostToController, PT: PTCommand, Body: []byte{0xFF, 0xFF, 0x00}}
	if _, err := ParseCommand(pkt); !errors.Is(err, ErrUnknownOpcode) {
		t.Errorf("unknown opcode: %v", err)
	}
	evt := Packet{Dir: DirControllerToHost, PT: PTEvent, Body: []byte{0xFE, 0x00}}
	if _, err := ParseEvent(evt); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("unknown event: %v", err)
	}
}

func TestParseShortParams(t *testing.T) {
	// A Link_Key_Request_Reply with too few parameter bytes must fail
	// cleanly, not panic.
	body := []byte{0x0b, 0x04, 0x03, 1, 2, 3}
	pkt := Packet{Dir: DirHostToController, PT: PTCommand, Body: body}
	if _, err := ParseCommand(pkt); err == nil {
		t.Fatal("short params accepted")
	}
}

func TestACLRoundTrip(t *testing.T) {
	f := func(handle uint16, data []byte) bool {
		h := bt.ConnHandle(handle & 0x0FFF)
		pkt := EncodeACL(DirHostToController, h, data)
		gotH, gotData, ok := ParseACL(pkt)
		if !ok || gotH != h {
			return false
		}
		if len(gotData) != len(data) {
			return false
		}
		for i := range data {
			if gotData[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeOGFOCF(t *testing.T) {
	if OpCreateConnection.OGF() != 0x01 || OpCreateConnection.OCF() != 0x005 {
		t.Errorf("CreateConnection OGF/OCF = %x/%x", OpCreateConnection.OGF(), OpCreateConnection.OCF())
	}
	if OpReset.OGF() != 0x03 {
		t.Errorf("Reset OGF = %x", OpReset.OGF())
	}
}

func TestStatusErr(t *testing.T) {
	if StatusSuccess.Err() != nil {
		t.Error("success must map to nil")
	}
	if StatusPageTimeout.Err() == nil {
		t.Error("failure must map to error")
	}
}

func TestScanEnableBits(t *testing.T) {
	if !ScanInquiryPage.InquiryScan() || !ScanInquiryPage.PageScan() {
		t.Error("0x03 enables both scans")
	}
	if ScanPageOnly.InquiryScan() || !ScanPageOnly.PageScan() {
		t.Error("0x02 is page only")
	}
	if ScanOff.InquiryScan() || ScanOff.PageScan() {
		t.Error("0x00 disables both")
	}
}

func TestNameStrings(t *testing.T) {
	if OpLinkKeyRequestReply.String() != "HCI_Link_Key_Request_Reply" {
		t.Errorf("opcode name: %s", OpLinkKeyRequestReply)
	}
	if EvLinkKeyNotification.String() != "HCI_Link_Key_Notification" {
		t.Errorf("event name: %s", EvLinkKeyNotification)
	}
	if StatusLMPResponseTimeout.String() != "LMP Response Timeout" {
		t.Errorf("status name: %s", StatusLMPResponseTimeout)
	}
	if Opcode(0x3FFF).String() == "" || EventCode(0x77).String() == "" {
		t.Error("unknown ids must render")
	}
}

func TestEveryOpcodeAndEventHasAName(t *testing.T) {
	for _, cmd := range allCommands() {
		if name := cmd.Opcode().String(); name == "" || name[0] != 'H' {
			t.Errorf("%T opcode name %q", cmd, name)
		}
	}
	for _, evt := range allEvents() {
		if name := evt.Code().String(); name == "" || name[0] != 'H' {
			t.Errorf("%T event name %q", evt, name)
		}
	}
	for _, st := range []Status{StatusSuccess, StatusUnknownConnectionID, StatusPageTimeout,
		StatusAuthenticationFailure, StatusPINOrKeyMissing, StatusConnectionTimeout,
		StatusConnectionAcceptTimeout, StatusRemoteUserTerminated, StatusConnTerminatedLocally,
		StatusPairingNotAllowed, StatusLMPResponseTimeout, StatusConnectionAlreadyExists, Status(0xEE)} {
		if st.String() == "" {
			t.Errorf("status %#x renders empty", uint8(st))
		}
	}
	if PTCommand.String() == "" || PTEvent.String() == "" || PTACLData.String() == "" ||
		PTSCOData.String() == "" || PacketType(9).String() == "" {
		t.Error("packet type names")
	}
	if DirHostToController.String() == DirControllerToHost.String() {
		t.Error("direction names must differ")
	}
}

func TestPeekPacketType(t *testing.T) {
	for _, cmd := range allCommands() {
		if pt, ok := PeekPacketType(EncodeCommand(cmd).Wire()); !ok || pt != PTCommand {
			t.Errorf("%T: peek %v %v", cmd, pt, ok)
		}
	}
	for _, evt := range allEvents() {
		if pt, ok := PeekPacketType(EncodeEvent(evt).Wire()); !ok || pt != PTEvent {
			t.Errorf("%T: peek %v %v", evt, pt, ok)
		}
	}
	if pt, ok := PeekPacketType(EncodeACL(DirHostToController, 3, []byte{1}).Wire()); !ok || pt != PTACLData {
		t.Errorf("ACL: peek %v %v", pt, ok)
	}
	if _, ok := PeekPacketType(nil); ok {
		t.Error("nil buffer peeked")
	}
	if _, ok := PeekPacketType([]byte{0x00}); ok {
		t.Error("unknown indicator peeked")
	}
}
