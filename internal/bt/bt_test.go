package bt

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseBDADDR(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"00:1a:7d:da:71:0a", "00:1a:7d:da:71:0a", true},
		{"00-1A-7D-DA-71-0A", "00:1a:7d:da:71:0a", true},
		{"001a7dda710a", "00:1a:7d:da:71:0a", true},
		{"00:1a:7d:da:71", "", false},
		{"zz:1a:7d:da:71:0a", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		got, err := ParseBDADDR(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseBDADDR(%q) err=%v", c.in, err)
			continue
		}
		if err != nil {
			if !errors.Is(err, ErrBadBDADDR) {
				t.Errorf("error should wrap ErrBadBDADDR: %v", err)
			}
			continue
		}
		if got.String() != c.want {
			t.Errorf("ParseBDADDR(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestBDADDRParts(t *testing.T) {
	a := MustBDADDR("00:1a:7d:da:71:0a")
	if a.NAP() != 0x001a {
		t.Errorf("NAP = %04x", a.NAP())
	}
	if a.UAP() != 0x7d {
		t.Errorf("UAP = %02x", a.UAP())
	}
	if a.LAP() != 0xda710a {
		t.Errorf("LAP = %06x", a.LAP())
	}
	if a.IsZero() {
		t.Error("non-zero addr reported zero")
	}
	if !(BDADDR{}).IsZero() {
		t.Error("zero addr not reported zero")
	}
}

func TestBDADDRLittleEndianRoundTrip(t *testing.T) {
	f := func(a BDADDR) bool {
		return BDADDRFromLittleEndian(a.LittleEndian()) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	a := MustBDADDR("01:02:03:04:05:06")
	le := a.LittleEndian()
	if le != [6]byte{6, 5, 4, 3, 2, 1} {
		t.Errorf("LittleEndian = %v", le)
	}
}

// TestBDADDRAppendText pins AppendText to String and to the fmt
// rendering it replaced, on the zero address, all-0xff and random
// addresses, and checks it appends after existing bytes without
// allocating when the buffer has room.
func TestBDADDRAppendText(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	addrs := []BDADDR{{}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
	for i := 0; i < 200; i++ {
		var a BDADDR
		rng.Read(a[:])
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		want := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
		got, err := a.AppendText([]byte("peer="))
		if err != nil || string(got) != "peer="+want {
			t.Fatalf("AppendText(%v) = %q, %v; want %q", [6]byte(a), got, err, "peer="+want)
		}
		if s := a.String(); s != want {
			t.Fatalf("String(%v) = %q, want %q", [6]byte(a), s, want)
		}
	}
	buf := make([]byte, 0, 64)
	a := addrs[2]
	if n := testing.AllocsPerRun(100, func() { buf, _ = a.AppendText(buf[:0]) }); n != 0 {
		t.Fatalf("AppendText into a large enough buffer allocates %.0f times", n)
	}
}

func TestMustBDADDRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBDADDR must panic on bad input")
		}
	}()
	MustBDADDR("nope")
}

func TestParseLinkKey(t *testing.T) {
	k, err := ParseLinkKey("71a70981f30d6af9e20adee8aafe3264")
	if err != nil {
		t.Fatal(err)
	}
	if k.String() != "71a70981f30d6af9e20adee8aafe3264" {
		t.Errorf("round trip: %s", k)
	}
	if _, err := ParseLinkKey("short"); !errors.Is(err, ErrBadLinkKey) {
		t.Errorf("want ErrBadLinkKey, got %v", err)
	}
	if _, err := ParseLinkKey("zz" + "00"[0:0] + "a70981f30d6af9e20adee8aafe3264"); err == nil {
		t.Error("bad hex accepted")
	}
	if !(LinkKey{}).IsZero() {
		t.Error("zero key not zero")
	}
}

func TestLinkKeyTypeNames(t *testing.T) {
	if KeyTypeUnauthenticatedP256.String() != "Unauthenticated (P-256)" {
		t.Errorf("got %s", KeyTypeUnauthenticatedP256)
	}
	if LinkKeyType(0xEE).String() == "" {
		t.Error("unknown type must render")
	}
}

func TestClassOfDevice(t *testing.T) {
	if CODMobilePhone.MajorDeviceClass() != MajorClassPhone {
		t.Errorf("0x5A020C major class = %02x", CODMobilePhone.MajorDeviceClass())
	}
	if CODHandsFree.MajorDeviceClass() != MajorClassAudio {
		t.Errorf("0x3C0404 major class = %02x", CODHandsFree.MajorDeviceClass())
	}
	f := func(c uint32) bool {
		cod := ClassOfDevice(c & 0xFFFFFF)
		return CODFromBytes(cod.Bytes()) == cod
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLTAddrValid(t *testing.T) {
	if LTAddr(0).Valid() || LTAddr(8).Valid() {
		t.Error("0 and 8 are invalid LT_ADDRs")
	}
	if !LTAddr(1).Valid() || !LTAddr(7).Valid() {
		t.Error("1..7 are valid LT_ADDRs")
	}
}

func TestVersionPredicates(t *testing.T) {
	if V4_2.AtLeast5() {
		t.Error("4.2 is not >= 5.0")
	}
	for _, v := range []Version{V5_0, V5_1, V5_2, V5_3} {
		if !v.AtLeast5() {
			t.Errorf("%s should be >= 5.0", v)
		}
	}
	if V5_0.String() != "v5.0" {
		t.Errorf("String: %s", V5_0)
	}
}

func TestIOCapabilityStrings(t *testing.T) {
	if NoInputNoOutput.String() != "NoInputNoOutput" || DisplayYesNo.String() != "DisplayYesNo" {
		t.Error("capability names wrong")
	}
	if !NoInputNoOutput.Valid() || IOCapability(9).Valid() {
		t.Error("validity wrong")
	}
}

func TestStringersExhaustive(t *testing.T) {
	for _, m := range []AssociationModel{JustWorks, NumericComparison, PasskeyEntry, OutOfBand, AssociationModel(99)} {
		if m.String() == "" {
			t.Errorf("AssociationModel(%d) renders empty", m)
		}
	}
	for c := IOCapability(0); c < 6; c++ {
		if c.String() == "" {
			t.Errorf("IOCapability(%d) renders empty", c)
		}
	}
	for v := Version(0); v < 10; v++ {
		if v.String() == "" {
			t.Errorf("Version(%d) renders empty", v)
		}
	}
	for _, kt := range []LinkKeyType{KeyTypeCombination, KeyTypeLocalUnit, KeyTypeRemoteUnit,
		KeyTypeDebugCombination, KeyTypeUnauthenticatedP192, KeyTypeAuthenticatedP192,
		KeyTypeChangedCombination, KeyTypeUnauthenticatedP256, KeyTypeAuthenticatedP256} {
		if kt.String() == "" {
			t.Errorf("LinkKeyType(%d) renders empty", kt)
		}
	}
}

func TestCODFields(t *testing.T) {
	// 0x5A020C: service classes 0x2D0, major 0x02 (phone), minor 0x03.
	if CODMobilePhone.MinorDeviceClass() != 0x03 {
		t.Errorf("minor = %#x", CODMobilePhone.MinorDeviceClass())
	}
	if CODMobilePhone.MajorServiceClasses() != 0x2D0 {
		t.Errorf("services = %#x", CODMobilePhone.MajorServiceClasses())
	}
	for _, c := range []ClassOfDevice{CODMobilePhone, CODHandsFree, CODComputer, CODHeadset, ClassOfDevice(0)} {
		if c.String() == "" {
			t.Errorf("COD %#x renders empty", uint32(c))
		}
	}
}

func TestMustLinkKey(t *testing.T) {
	k := MustLinkKey("000102030405060708090a0b0c0d0e0f")
	if k[0] != 0 || k[15] != 0x0f {
		t.Fatalf("parse: %v", k)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustLinkKey must panic on bad input")
		}
	}()
	MustLinkKey("nope")
}

// TestBDADDRStringMatchesSprintf pins the table-driven String to the
// fmt.Sprintf form it replaced, over edge and random addresses, and to
// one allocation (the returned string).
func TestBDADDRStringMatchesSprintf(t *testing.T) {
	addrs := []BDADDR{{}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, {0x00, 0x1a, 0x7d, 0xda, 0x71, 0x0a}, {0x0f, 0xf0, 0x01, 0x10, 0x9a, 0xa9}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		var a BDADDR
		rng.Read(a[:])
		addrs = append(addrs, a)
	}
	for _, a := range addrs {
		want := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
		if got := a.String(); got != want {
			t.Fatalf("% x: String() = %q, want %q", a[:], got, want)
		}
	}
	a := addrs[len(addrs)-1]
	var sink string
	if n := testing.AllocsPerRun(100, func() { sink = a.String() }); n > 1 {
		t.Fatalf("String allocates %v times, want at most 1", n)
	}
	_ = sink
}
