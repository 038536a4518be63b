package btcrypto

import (
	"bytes"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// This file implements the Secure Simple Pairing cryptographic functions
// (Core spec Vol 2 Part H §7): the commitment function f1, the numeric
// verification function g, the link key derivation function f2 and the
// check function f3, all built on SHA-256 / HMAC-SHA-256, plus a P-256
// ECDH key pair wrapper.

// keyIDbtlk is the f2 key ID, the ASCII string "btlk".
var keyIDbtlk = [4]byte{0x62, 0x74, 0x6c, 0x6b}

// hmacMaxMsg is the longest message hmac128 takes: f1's U || V || Z.
const hmacMaxMsg = 65

// hmac128 is HMAC-SHA-256 (RFC 2104) truncated to 128 bits. SSP keys are
// 16-byte nonces or 32-byte DHKeys and messages at most hmacMaxMsg bytes,
// so both passes hash stack buffers and nothing is allocated.
func hmac128(key, msg []byte) [16]byte {
	const block = sha256.BlockSize
	if len(key) > block {
		k := sha256.Sum256(key)
		key = k[:]
	}
	var inner [block + hmacMaxMsg]byte
	var outer [block + sha256.Size]byte
	for i := 0; i < block; i++ {
		inner[i], outer[i] = 0x36, 0x5c
	}
	for i, b := range key {
		inner[i] ^= b
		outer[i] ^= b
	}
	n := block + len(msg) // slicing panics if msg exceeds hmacMaxMsg
	copy(inner[block:n], msg)
	ih := sha256.Sum256(inner[:n])
	copy(outer[block:], ih[:])
	oh := sha256.Sum256(outer[:])
	return [16]byte(oh[:16])
}

// F1 computes the SSP commitment: HMAC-SHA-256 keyed with the nonce X over
// the two ECDH public X-coordinates U and V and the one-byte value Z,
// truncated to 128 bits.
func F1(u, v [32]byte, x [16]byte, z byte) [16]byte {
	var msg [65]byte
	copy(msg[:32], u[:])
	copy(msg[32:64], v[:])
	msg[64] = z
	return hmac128(x[:], msg[:])
}

// G computes the 32-bit numeric verification value from the public key
// X-coordinates and both nonces; the six-digit number shown to users is
// G(...) mod 1e6.
func G(u, v [32]byte, x, y [16]byte) uint32 {
	var msg [96]byte
	copy(msg[:32], u[:])
	copy(msg[32:64], v[:])
	copy(msg[64:80], x[:])
	copy(msg[80:], y[:])
	sum := sha256.Sum256(msg[:])
	return binary.BigEndian.Uint32(sum[28:32])
}

// SixDigits converts a g output to the displayed confirmation value.
func SixDigits(g uint32) uint32 { return g % 1_000_000 }

// F2 derives the link key from the DHKey W, both nonces, the fixed key ID
// "btlk" and both device addresses (claimant first, per spec order: A1 is
// the master/initiating device address).
func F2(w []byte, n1, n2 [16]byte, a1, a2 [6]byte) [16]byte {
	var msg [48]byte
	copy(msg[:16], n1[:])
	copy(msg[16:32], n2[:])
	copy(msg[32:36], keyIDbtlk[:])
	copy(msg[36:42], a1[:])
	copy(msg[42:], a2[:])
	return hmac128(w, msg[:])
}

// F3 computes the authentication stage 2 check value from the DHKey W,
// both nonces, the random value R, the 3-byte IO capability field and the
// two device addresses.
func F3(w []byte, n1, n2, r [16]byte, ioCap [3]byte, a1, a2 [6]byte) [16]byte {
	var msg [63]byte
	copy(msg[:16], n1[:])
	copy(msg[16:32], n2[:])
	copy(msg[32:48], r[:])
	copy(msg[48:51], ioCap[:])
	copy(msg[51:57], a1[:])
	copy(msg[57:], a2[:])
	return hmac128(w, msg[:])
}

// pubLen is the length of an uncompressed P-256 point, 0x04 || X || Y.
const pubLen = 65

// KeyPair is a P-256 ECDH key pair used in SSP public key exchange.
type KeyPair struct {
	priv *ecdh.PrivateKey
	pub  [pubLen]byte // uncompressed public encoding, computed once
}

// GenerateKeyPair creates a P-256 key pair from the given entropy source.
// Unlike crypto/ecdh.GenerateKey — which intentionally consumes a
// nondeterministic number of reader bytes — this derivation is a pure
// function of the reader's output (rejection sampling over candidate
// scalars), which the simulator needs for reproducible runs.
func GenerateKeyPair(rand io.Reader) (*KeyPair, error) {
	for attempt := 0; attempt < 64; attempt++ {
		var scalar [32]byte
		if _, err := io.ReadFull(rand, scalar[:]); err != nil {
			return nil, fmt.Errorf("btcrypto: reading key entropy: %w", err)
		}
		priv, err := ecdh.P256().NewPrivateKey(scalar[:])
		if err != nil {
			continue // out of range for the curve order; draw again
		}
		kp := &KeyPair{priv: priv}
		copy(kp.pub[:], priv.PublicKey().Bytes())
		return kp, nil
	}
	return nil, fmt.Errorf("btcrypto: no valid P-256 scalar after 64 draws")
}

// PublicX returns the 32-byte X coordinate of the public key, the value
// exchanged (and committed to) during SSP.
func (kp *KeyPair) PublicX() [32]byte {
	var x [32]byte
	copy(x[:], kp.pub[1:33])
	return x
}

// PublicBytes returns a fresh copy of the full uncompressed public key
// encoding sent in the SSP public key exchange.
func (kp *KeyPair) PublicBytes() []byte { return append([]byte(nil), kp.pub[:]...) }

// dhMemoMax bounds the pair memo: it is cleared when it reaches this many
// entries, which caps the pairings where only one side ever computes.
const dhMemoMax = 1024

// dhMemo holds the shared secret of each pairing in flight. The P-256
// secret is symmetric in the two points, a·(bG) = b·(aG) with cofactor 1,
// so it is keyed by the unordered pair of public encodings: the side that
// computes second takes the entry, and deletes it, instead of doing its
// own scalar multiplication. An entry is inserted only after a validated
// computation, so a hit implies both points were valid.
var dhMemo = struct {
	sync.Mutex
	m map[[2 * pubLen]byte][32]byte
}{m: make(map[[2 * pubLen]byte][32]byte)}

// dhPairKey is the memo key of a pairing: both encodings, smaller first.
func dhPairKey(a, b []byte) (k [2 * pubLen]byte) {
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	copy(k[:pubLen], a)
	copy(k[pubLen:], b)
	return k
}

// DHKey computes the shared secret with a peer's uncompressed public key
// encoding. The returned 32-byte value is the W input of f2/f3; each call
// returns its own slice.
func (kp *KeyPair) DHKey(peerPublic []byte) ([]byte, error) {
	// Only a 65-byte encoding can be a valid point, so anything else goes
	// straight to validation and its error.
	memo := len(peerPublic) == pubLen
	var key [2 * pubLen]byte
	if memo {
		key = dhPairKey(kp.pub[:], peerPublic)
		dhMemo.Lock()
		w, ok := dhMemo.m[key]
		delete(dhMemo.m, key)
		dhMemo.Unlock()
		if ok {
			return w[:], nil
		}
	}
	pub, err := ecdh.P256().NewPublicKey(peerPublic)
	if err != nil {
		return nil, fmt.Errorf("btcrypto: invalid peer public key: %w", err)
	}
	secret, err := kp.priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("btcrypto: ECDH: %w", err)
	}
	if memo {
		var w [32]byte
		copy(w[:], secret)
		dhMemo.Lock()
		if len(dhMemo.m) >= dhMemoMax {
			clear(dhMemo.m)
		}
		dhMemo.m[key] = w
		dhMemo.Unlock()
	}
	return secret, nil
}
