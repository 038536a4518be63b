package forensics

import (
	"testing"

	"repro/internal/bt"
	"repro/internal/hci"
)

// FuzzDecodeKept pins the in-place decoder to the typed hci parsers: for
// any record that passes RelevantRecord, hciMsg.decode must accept
// exactly when hci.ParseWireBorrow plus ParseCommand/ParseEvent accept,
// and every field the reducer reads must equal the typed message's.
func FuzzDecodeKept(f *testing.F) {
	peer := bt.MustBDADDR("00:1a:7d:da:71:0a")
	key := bt.MustLinkKey("00112233445566778899aabbccddeeff")
	// Each well-formed record of the nine consumed kinds, plus broken
	// variants of it.
	for _, pkt := range []hci.Packet{
		hci.EncodeCommand(&hci.AcceptConnectionRequest{Addr: peer, Role: 1}),
		hci.EncodeCommand(&hci.AuthenticationRequested{Handle: 0x0abc}),
		hci.EncodeCommand(&hci.LinkKeyRequestReply{Addr: peer, Key: key}),
		hci.EncodeEvent(&hci.ConnectionComplete{Status: hci.StatusSuccess, Handle: 0x000b, Addr: peer, LinkType: 1}),
		hci.EncodeEvent(&hci.IOCapabilityResponse{Addr: peer, Capability: bt.NoInputNoOutput, AuthRequirements: 3}),
		hci.EncodeEvent(&hci.SimplePairingComplete{Status: hci.StatusAuthenticationFailure, Addr: peer}),
		hci.EncodeEvent(&hci.AuthenticationComplete{Status: hci.StatusSuccess, Handle: 0x0eff}),
		hci.EncodeEvent(&hci.LinkKeyNotification{Addr: peer, Key: key, KeyType: bt.KeyTypeAuthenticatedP256}),
		hci.EncodeEvent(&hci.DisconnectionComplete{Status: hci.StatusSuccess, Handle: 0x0001, Reason: hci.StatusConnectionTimeout}),
	} {
		raw := pkt.Wire()
		f.Add(raw)
		// One byte short or long: the length octet no longer matches
		// the body.
		f.Add(raw[:len(raw)-1])
		f.Add(append(raw[:len(raw):len(raw)], 0))
		// One byte short with a matching length octet: a short
		// parameter block.
		short := append([]byte(nil), raw[:len(raw)-1]...)
		short[1+lengthOctet(pkt.PT)]--
		f.Add(short)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		if !RelevantRecord(raw) {
			return
		}
		var m hciMsg
		got := m.decode(raw)
		typed, err := parseTyped(raw)
		if got != (err == nil) {
			t.Fatalf("decode accepts=%v, typed parse error %v, record %x", got, err, raw)
		}
		if !got {
			return
		}
		var want hciMsg
		switch v := typed.(type) {
		case *hci.AcceptConnectionRequest:
			want = hciMsg{kind: msgAcceptConnection, addr: v.Addr}
		case *hci.AuthenticationRequested:
			want = hciMsg{kind: msgAuthRequested, handle: v.Handle}
		case *hci.LinkKeyRequestReply:
			want = hciMsg{kind: msgLinkKeyReply, addr: v.Addr, key: v.Key}
		case *hci.ConnectionComplete:
			want = hciMsg{kind: msgConnectionComplete, status: v.Status, handle: v.Handle, addr: v.Addr}
		case *hci.IOCapabilityResponse:
			want = hciMsg{kind: msgIOCapResponse, addr: v.Addr, ioCap: v.Capability}
		case *hci.SimplePairingComplete:
			want = hciMsg{kind: msgPairingComplete, status: v.Status, addr: v.Addr}
		case *hci.AuthenticationComplete:
			want = hciMsg{kind: msgAuthComplete, status: v.Status, handle: v.Handle}
		case *hci.LinkKeyNotification:
			want = hciMsg{kind: msgLinkKeyNotification, addr: v.Addr, key: v.Key, keyType: v.KeyType}
		case *hci.DisconnectionComplete:
			want = hciMsg{kind: msgDisconnection, status: v.Status, handle: v.Handle, reason: v.Reason}
		default:
			t.Fatalf("RelevantRecord passed a %T the reducer does not consume", typed)
		}
		if m != want {
			t.Fatalf("record %x:\ndecode: %+v\ntyped:  %+v", raw, m, want)
		}
	})
}

// lengthOctet is the offset of the parameter-length octet in a packet
// body: after the two-byte opcode of a command, the event code of an
// event.
func lengthOctet(pt hci.PacketType) int {
	if pt == hci.PTCommand {
		return 2
	}
	return 1
}

// parseTyped is the typed parse the decoder replaced on the reducer's
// path: the borrowed wire parse, then ParseCommand or ParseEvent.
func parseTyped(raw []byte) (any, error) {
	pkt, err := hci.ParseWireBorrow(hci.DirHostToController, raw)
	if err != nil {
		return nil, err
	}
	if pkt.PT == hci.PTCommand {
		return hci.ParseCommand(pkt)
	}
	return hci.ParseEvent(pkt)
}
