package btcrypto

import (
	"bytes"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// refDH is the direct crypto/ecdh shared secret of kp with peer, the
// reference the DHKey pair memo must reproduce on every call.
func refDH(t testing.TB, kp *KeyPair, peer []byte) []byte {
	t.Helper()
	pub, err := ecdh.P256().NewPublicKey(peer)
	if err != nil {
		t.Fatal(err)
	}
	w, err := kp.priv.ECDH(pub)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestECDHAgreement(t *testing.T) {
	a, err := GenerateKeyPair(testRand(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKeyPair(testRand(2))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := a.DHKey(b.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.DHKey(a.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	// The second call is a memo hit, so each side is checked against the
	// direct computation, not only against the other side.
	if !bytes.Equal(s1, refDH(t, a, b.PublicBytes())) {
		t.Fatal("initiator secret differs from direct ECDH")
	}
	if !bytes.Equal(s2, refDH(t, b, a.PublicBytes())) {
		t.Fatal("responder secret differs from direct ECDH")
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("ECDH shared secrets disagree")
	}
	if len(s1) != 32 {
		t.Fatalf("P-256 shared secret must be 32 bytes, got %d", len(s1))
	}
}

func TestDHKeyMemoMatchesReference(t *testing.T) {
	rng := testRand(50)
	// hub pairs with every a as well, so one own key meets many peers.
	hub, err := GenerateKeyPair(rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a, err := GenerateKeyPair(rng)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenerateKeyPair(rng)
		if err != nil {
			t.Fatal(err)
		}
		// On each pair the first call computes, the second takes the entry
		// and the third recomputes after the entry is gone.
		calls := []struct {
			own, peer *KeyPair
		}{{a, b}, {b, a}, {a, b}, {hub, a}, {a, hub}, {hub, a}}
		// Each caller owns its slice: the test scribbles on every result,
		// which must not reach a later caller, and a later call must not
		// rewrite an earlier result.
		var held, heldWant [][]byte
		for n, c := range calls {
			want := refDH(t, c.own, c.peer.PublicBytes())
			got, err := c.own.DHKey(c.peer.PublicBytes())
			if err != nil {
				t.Fatalf("pair %d call %d: %v", i, n+1, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pair %d call %d: %x, want %x", i, n+1, got, want)
			}
			for j := range held {
				if !bytes.Equal(held[j], heldWant[j]) {
					t.Fatalf("pair %d call %d rewrote the result of call %d", i, n+1, j+1)
				}
			}
			for j := range got {
				got[j] ^= 0xff
			}
			held, heldWant = append(held, got), append(heldWant, bytes.Clone(got))
		}
	}
}

func TestDHKeyMemoSelfPair(t *testing.T) {
	// A key paired with its own public point: both lookups share one
	// memo key, and both must still return a·(aG).
	a, _ := GenerateKeyPair(testRand(51))
	want := refDH(t, a, a.PublicBytes())
	for n := 0; n < 3; n++ {
		got, err := a.DHKey(a.PublicBytes())
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("call %d: %x, %v; want %x", n+1, got, err, want)
		}
	}
}

func TestDHKeyMemoIsBounded(t *testing.T) {
	dhMemo.Lock()
	clear(dhMemo.m)
	for i := 0; i < dhMemoMax; i++ {
		var k [2 * pubLen]byte
		k[0], k[1] = byte(i), byte(i>>8)
		dhMemo.m[k] = [32]byte{}
	}
	dhMemo.Unlock()
	a, _ := GenerateKeyPair(testRand(52))
	b, _ := GenerateKeyPair(testRand(53))
	if _, err := a.DHKey(b.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	dhMemo.Lock()
	n := len(dhMemo.m)
	dhMemo.Unlock()
	if n != 1 {
		t.Fatalf("a full memo must be cleared before the insert: %d entries, want 1", n)
	}
	got, err := b.DHKey(a.PublicBytes())
	if err != nil || !bytes.Equal(got, refDH(t, b, a.PublicBytes())) {
		t.Fatalf("after the clear: %x, %v", got, err)
	}
}

func TestDHKeyConcurrentPairs(t *testing.T) {
	const workers, pairs = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		// Key generation and the reference run here, before the workers
		// start, so t.Fatal stays on the test goroutine.
		rng := testRand(int64(100 + g))
		type pair struct {
			a, b *KeyPair
			want []byte
		}
		ps := make([]pair, pairs)
		for i := range ps {
			a, _ := GenerateKeyPair(rng)
			b, _ := GenerateKeyPair(rng)
			ps[i] = pair{a, b, refDH(t, a, b.PublicBytes())}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range ps {
				for n, side := range [][2]*KeyPair{{p.a, p.b}, {p.b, p.a}} {
					got, err := side[0].DHKey(side[1].PublicBytes())
					if err != nil || !bytes.Equal(got, p.want) {
						errs <- fmt.Errorf("worker %d pair %d side %d: %x, %v", g, i, n, got, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestECDHRejectsGarbagePublicKey(t *testing.T) {
	a, _ := GenerateKeyPair(testRand(3))
	// A valid pairing on the same own key first: its memo traffic must
	// not let an invalid peer through.
	b, _ := GenerateKeyPair(testRand(5))
	if _, err := a.DHKey(b.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.DHKey([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage peer key must be rejected")
	}
	// An all-zero uncompressed point is not on the curve.
	bad := make([]byte, 65)
	bad[0] = 4
	if _, err := a.DHKey(bad); err == nil {
		t.Fatal("off-curve peer key must be rejected")
	}
	// Nor is the valid peer's point with its Y coordinate flipped.
	flip := b.PublicBytes()
	flip[64] ^= 1
	if _, err := a.DHKey(flip); err == nil {
		t.Fatal("corrupted peer key must be rejected")
	}
}

func TestPublicXMatchesEncoding(t *testing.T) {
	kp, _ := GenerateKeyPair(testRand(4))
	raw := kp.PublicBytes()
	if raw[0] != 0x04 || len(raw) != 65 {
		t.Fatalf("unexpected uncompressed encoding: len=%d first=%x", len(raw), raw[0])
	}
	x := kp.PublicX()
	if !bytes.Equal(x[:], raw[1:33]) {
		t.Fatal("PublicX must be the X coordinate of the encoding")
	}
}

func TestF1CommitmentBinding(t *testing.T) {
	// f1 commits to the nonce: the same (U,V) with a different X must
	// give a different commitment, and Z is bound too.
	var u, v [32]byte
	u[0], v[0] = 1, 2
	x1 := [16]byte{3}
	x2 := [16]byte{4}
	if F1(u, v, x1, 0) == F1(u, v, x2, 0) {
		t.Fatal("f1 must bind the nonce")
	}
	if F1(u, v, x1, 0) == F1(u, v, x1, 1) {
		t.Fatal("f1 must bind Z")
	}
	if F1(u, v, x1, 0) == F1(v, u, x1, 0) {
		t.Fatal("f1 must be order-sensitive in U,V")
	}
}

func TestGSymmetryAcrossRoles(t *testing.T) {
	// Both sides compute g with (initiator key, responder key, Na, Nb);
	// the function itself must be deterministic and sensitive to each
	// argument.
	f := func(u, v [32]byte, x, y [16]byte) bool {
		return G(u, v, x, y) == G(u, v, x, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	var u, v [32]byte
	var x, y [16]byte
	g1 := G(u, v, x, y)
	y[15] ^= 1
	if G(u, v, x, y) == g1 {
		t.Fatal("g must depend on Nb")
	}
}

func TestSixDigits(t *testing.T) {
	cases := []struct {
		in   uint32
		want uint32
	}{
		{0, 0},
		{999_999, 999_999},
		{1_000_000, 0},
		{1_234_567, 234_567},
		{0xFFFFFFFF, 4294967295 % 1_000_000},
	}
	for _, c := range cases {
		if got := SixDigits(c.in); got != c.want {
			t.Errorf("SixDigits(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestF2LinkKeyAgreement(t *testing.T) {
	// Initiator computes f2(W, Na, Nb, A, B); responder computes
	// f2(W, Na, Nb, A, B) with the same argument order — both must agree,
	// and any differing input must change the key.
	w := make([]byte, 32)
	w[0] = 0x42
	na := [16]byte{1}
	nb := [16]byte{2}
	a1 := [6]byte{3}
	a2 := [6]byte{4}
	k1 := F2(w, na, nb, a1, a2)
	k2 := F2(w, na, nb, a1, a2)
	if k1 != k2 {
		t.Fatal("f2 must be deterministic")
	}
	w2 := append([]byte(nil), w...)
	w2[31] ^= 1
	if F2(w2, na, nb, a1, a2) == k1 {
		t.Fatal("f2 must depend on the DHKey")
	}
	if F2(w, nb, na, a1, a2) == k1 {
		t.Fatal("f2 must bind nonce order")
	}
	if F2(w, na, nb, a2, a1) == k1 {
		t.Fatal("f2 must bind address order")
	}
}

func TestF3CheckValueBindsIOCap(t *testing.T) {
	w := make([]byte, 32)
	n1 := [16]byte{1}
	n2 := [16]byte{2}
	r := [16]byte{}
	a1 := [6]byte{3}
	a2 := [6]byte{4}
	io1 := [3]byte{0, 0, 1}
	io2 := [3]byte{0, 0, 3} // NoInputNoOutput
	if F3(w, n1, n2, r, io1, a1, a2) == F3(w, n1, n2, r, io2, a1, a2) {
		t.Fatal("f3 must bind the IO capability — the downgrade-detection hook")
	}
}

func TestDeterministicKeyGeneration(t *testing.T) {
	// The same entropy stream must give the same key pair (the simulator
	// relies on this for reproducibility).
	a1, _ := GenerateKeyPair(testRand(99))
	a2, _ := GenerateKeyPair(testRand(99))
	if !bytes.Equal(a1.PublicBytes(), a2.PublicBytes()) {
		t.Fatal("key generation must be deterministic given the reader")
	}
}

// refHMAC128 is the crypto/hmac construction hmac128 replaced.
func refHMAC128(key []byte, msg ...[]byte) [16]byte {
	mac := hmac.New(sha256.New, key)
	for _, m := range msg {
		mac.Write(m)
	}
	var out [16]byte
	copy(out[:], mac.Sum(nil))
	return out
}

func TestHMAC128MatchesCryptoHMAC(t *testing.T) {
	rng := testRand(60)
	// 16 and 32 are the SSP key sizes; the rest cover keys at and past one
	// SHA-256 block, which RFC 2104 hashes first.
	for _, kl := range []int{0, 16, 32, 63, 64, 65, 100} {
		for ml := 0; ml <= hmacMaxMsg; ml++ {
			key := make([]byte, kl)
			msg := make([]byte, ml)
			rng.Read(key)
			rng.Read(msg)
			if got, want := hmac128(key, msg), refHMAC128(key, msg); got != want {
				t.Fatalf("key %d msg %d: %x, want %x", kl, ml, got, want)
			}
		}
	}
}

func TestSSPFunctionsMatchReference(t *testing.T) {
	rng := testRand(61)
	for i := 0; i < 200; i++ {
		var u, v [32]byte
		var x, y, r [16]byte
		var ioCap [3]byte
		var a1, a2 [6]byte
		for _, b := range [][]byte{u[:], v[:], x[:], y[:], r[:], ioCap[:], a1[:], a2[:]} {
			rng.Read(b)
		}
		z := byte(rng.Intn(256))
		w := make([]byte, 32)
		rng.Read(w)

		if got, want := F1(u, v, x, z), refHMAC128(x[:], u[:], v[:], []byte{z}); got != want {
			t.Fatalf("F1 #%d: %x, want %x", i, got, want)
		}
		h := sha256.New()
		for _, b := range [][]byte{u[:], v[:], x[:], y[:]} {
			h.Write(b)
		}
		if got, want := G(u, v, x, y), binary.BigEndian.Uint32(h.Sum(nil)[28:]); got != want {
			t.Fatalf("G #%d: %08x, want %08x", i, got, want)
		}
		if got, want := F2(w, x, y, a1, a2), refHMAC128(w, x[:], y[:], []byte("btlk"), a1[:], a2[:]); got != want {
			t.Fatalf("F2 #%d: %x, want %x", i, got, want)
		}
		if got, want := F3(w, x, y, r, ioCap, a1, a2), refHMAC128(w, x[:], y[:], r[:], ioCap[:], a1[:], a2[:]); got != want {
			t.Fatalf("F3 #%d: %x, want %x", i, got, want)
		}
	}
}

func TestSSPFunctionsDoNotAllocate(t *testing.T) {
	var u, v [32]byte
	var x, y, r [16]byte
	var a [6]byte
	w := make([]byte, 32)
	for name, f := range map[string]func(){
		"F1": func() { F1(u, v, x, 1) },
		"F2": func() { F2(w, x, y, a, a) },
		"F3": func() { F3(w, x, y, r, [3]byte{}, a, a) },
		"G":  func() { G(u, v, x, y) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

// BenchmarkSSPPairing runs the crypto of one numeric-comparison pairing:
// both key pairs, both sides' DHKey, the commitment and its check, g, the
// link key and one check value.
func BenchmarkSSPPairing(b *testing.B) {
	rng := testRand(70)
	var na, nb, r [16]byte
	var a1, a2 [6]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ka, err := GenerateKeyPair(rng)
		if err != nil {
			b.Fatal(err)
		}
		kb, err := GenerateKeyPair(rng)
		if err != nil {
			b.Fatal(err)
		}
		wa, err := ka.DHKey(kb.PublicBytes())
		if err != nil {
			b.Fatal(err)
		}
		wb, err := kb.DHKey(ka.PublicBytes())
		if err != nil {
			b.Fatal(err)
		}
		ua, ub := ka.PublicX(), kb.PublicX()
		commit := F1(ub, ua, nb, 0)
		if F1(ub, ua, nb, 0) != commit {
			b.Fatal("f1 commitment check failed")
		}
		sspSink ^= G(ua, ub, na, nb)
		lk := F2(wa, na, nb, a1, a2)
		e := F3(wb, nb, na, r, [3]byte{}, a2, a1)
		sspSink ^= uint32(lk[0]) ^ uint32(e[0])
	}
}

var sspSink uint32
