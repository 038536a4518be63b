// Package bt defines the core Bluetooth BR/EDR value types shared by every
// layer of the BLAP simulator: device addresses, link keys, classes of
// device, IO capabilities, Bluetooth versions, and the Secure Simple
// Pairing association-model mapping from the specification (the paper's
// Fig. 7).
package bt

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// BDADDR is a 48-bit Bluetooth device address, stored big-endian
// (BDADDR[0] is the most significant byte of the NAP).
type BDADDR [6]byte

// ErrBadBDADDR reports a malformed textual Bluetooth address.
var ErrBadBDADDR = errors.New("bt: malformed BDADDR")

// ParseBDADDR parses "aa:bb:cc:dd:ee:ff" (case-insensitive, ':' or '-'
// separated, or 12 bare hex digits).
func ParseBDADDR(s string) (BDADDR, error) {
	var a BDADDR
	clean := strings.Map(func(r rune) rune {
		if r == ':' || r == '-' {
			return -1
		}
		return r
	}, s)
	if len(clean) != 12 {
		return a, fmt.Errorf("%w: %q", ErrBadBDADDR, s)
	}
	b, err := hex.DecodeString(clean)
	if err != nil {
		return a, fmt.Errorf("%w: %q: %v", ErrBadBDADDR, s, err)
	}
	copy(a[:], b)
	return a, nil
}

// MustBDADDR is ParseBDADDR that panics on error; for tests and catalogs.
func MustBDADDR(s string) BDADDR {
	a, err := ParseBDADDR(s)
	if err != nil {
		panic(err)
	}
	return a
}

// AppendText appends the canonical colon-separated lowercase form to b
// (encoding.TextAppender). It fills the digits from a hex table rather
// than calling fmt: the daemon's shard writers render every finding's
// peer through it straight into their reused line buffers, so it
// allocates nothing when b has room for the 17 bytes. The error is
// always nil.
func (a BDADDR) AppendText(b []byte) ([]byte, error) {
	const hexDigits = "0123456789abcdef"
	for i, v := range a {
		if i > 0 {
			b = append(b, ':')
		}
		b = append(b, hexDigits[v>>4], hexDigits[v&0x0f])
	}
	return b, nil
}

// String renders the canonical colon-separated lowercase form, built on
// AppendText over a stack buffer: one allocation, the returned string.
func (a BDADDR) String() string {
	var buf [17]byte
	b, _ := a.AppendText(buf[:0])
	return string(b)
}

// NAP returns the 16-bit non-significant address part (company id high).
func (a BDADDR) NAP() uint16 { return uint16(a[0])<<8 | uint16(a[1]) }

// UAP returns the 8-bit upper address part.
func (a BDADDR) UAP() uint8 { return a[2] }

// LAP returns the 24-bit lower address part used in access codes.
func (a BDADDR) LAP() uint32 { return uint32(a[3])<<16 | uint32(a[4])<<8 | uint32(a[5]) }

// IsZero reports whether the address is all-zero (unset).
func (a BDADDR) IsZero() bool { return a == BDADDR{} }

// LittleEndian returns the six address bytes in HCI wire order (least
// significant byte first), as they appear inside HCI command payloads.
func (a BDADDR) LittleEndian() [6]byte {
	var le [6]byte
	for i := range a {
		le[i] = a[5-i]
	}
	return le
}

// BDADDRFromLittleEndian converts six HCI wire-order bytes to a BDADDR.
func BDADDRFromLittleEndian(le [6]byte) BDADDR {
	var a BDADDR
	for i := range le {
		a[i] = le[5-i]
	}
	return a
}
