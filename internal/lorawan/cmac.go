// Package lorawan implements the LoRaWAN 1.0.x MAC layer pieces a gateway
// needs to make use of decoded PHY payloads: data-frame parsing
// (MHDR/FHDR/FPort/FRMPayload), the AES-CMAC message integrity check, and
// the counter-mode payload encryption, all on the standard library's AES.
//
// The paper's system stops at the PHY (§3); this package is the substrate
// that turns its output into verified application data.
//
// Two API tiers share one implementation. The original helpers (CMAC,
// ParseDataFrame, ...) take a raw []byte key and expand it on every call —
// simple, but one aes.NewCipher plus subkey schedule per invocation. The cached tier takes a *KeyCipher, which pins the
// expanded AES block and the CMAC subkeys once per key, and writes into
// caller-provided buffers, so the network server's steady-state verify
// path performs zero allocations and zero key schedules per frame.
package lorawan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
	"sync"
)

// AES-CMAC per RFC 4493, used for the LoRaWAN MIC.

const blockSize = 16

// KeyCipher is one 16-byte key's expanded cipher state: the AES block and
// the two CMAC subkeys. Building it costs one aes.NewCipher and one block
// encryption; every MAC or counter-mode call after that is schedule-free.
// A KeyCipher is immutable after NewKeyCipher and safe for concurrent use
// (cipher.Block is; the subkeys are read-only).
type KeyCipher struct {
	block  cipher.Block
	k1, k2 [blockSize]byte
}

// cipherCache interns KeyCiphers process-wide. Key expansion is pure —
// the same 16 bytes always produce the same state — and a KeyCipher is
// immutable, so every caller asking for the same key can share one
// instance. This turns repeated server construction and rejoin-heavy
// churn (device AppKeys re-expanded per restart, session keys re-derived
// per join) from three heap allocations each into a map hit. The cache is
// dropped wholesale when it reaches cipherCacheMax live keys, bounding
// memory under adversarial key churn while keeping the steady fleet —
// whose working set is one AppKey plus two session keys per device —
// permanently warm.
var cipherCache = struct {
	sync.Mutex
	m map[[blockSize]byte]*KeyCipher
}{m: make(map[[blockSize]byte]*KeyCipher)}

const cipherCacheMax = 1 << 14

// NewKeyCipher expands key (16 bytes) into a reusable cipher state.
// Results are interned: two calls with equal keys may return the same
// (immutable, concurrency-safe) instance.
func NewKeyCipher(key []byte) (*KeyCipher, error) {
	if len(key) != blockSize {
		// Out-of-band lengths skip the cache; let aes report the error.
		_, err := aes.NewCipher(key)
		return nil, fmt.Errorf("lorawan: %w", err)
	}
	var k [blockSize]byte
	copy(k[:], key)
	cipherCache.Lock()
	if kc := cipherCache.m[k]; kc != nil {
		cipherCache.Unlock()
		return kc, nil
	}
	cipherCache.Unlock()

	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("lorawan: %w", err)
	}
	kc := &KeyCipher{block: block}
	// kc.k1 doubles as the encrypted-zero scratch: buffers passed through
	// the cipher.Block interface escape, so local arrays here would cost
	// two heap allocations per key; kc's own storage is already heap.
	kc.k1 = zeroBlock
	block.Encrypt(kc.k1[:], kc.k1[:])
	kc.k1, kc.k2 = cmacSubkeys(kc.k1)

	cipherCache.Lock()
	if len(cipherCache.m) >= cipherCacheMax {
		cipherCache.m = make(map[[blockSize]byte]*KeyCipher)
	}
	cipherCache.m[k] = kc
	cipherCache.Unlock()
	return kc, nil
}

// zeroBlock is the all-zero CMAC subkey seed.
var zeroBlock [blockSize]byte

// cmacSubkeys derives K1 and K2 from the block cipher.
func cmacSubkeys(encZero [blockSize]byte) (k1, k2 [blockSize]byte) {
	k1 = shiftLeft(encZero)
	if encZero[0]&0x80 != 0 {
		k1[blockSize-1] ^= 0x87
	}
	k2 = shiftLeft(k1)
	if k1[0]&0x80 != 0 {
		k2[blockSize-1] ^= 0x87
	}
	return k1, k2
}

func shiftLeft(b [blockSize]byte) [blockSize]byte {
	var out [blockSize]byte
	var carry byte
	for i := blockSize - 1; i >= 0; i-- {
		out[i] = b[i]<<1 | carry
		carry = b[i] >> 7
	}
	return out
}

// Scratch holds the block-sized work buffers the cached crypto paths hand
// to the AES cipher. They live in a caller-owned struct rather than as
// locals because arguments to a cipher.Block interface call are assumed by
// escape analysis to escape — as locals, every one would be a fresh heap
// allocation per frame. Hold one Scratch per goroutine (the netserver
// keeps one per verify worker); a Scratch must not be shared concurrently.
type Scratch struct {
	x, blk, b0, ks, mac [blockSize]byte
}

// MAC computes the AES-CMAC over the logical concatenation of the given
// segments without materializing it: the LoRaWAN MIC inputs are always a
// fixed header block followed by the frame bytes (B0 || msg), and gluing
// them here removes the per-frame append the raw-key path pays. It
// allocates nothing. Segments may alias st.b0 (the MIC path does); the
// other Scratch fields are clobbered.
func (kc *KeyCipher) MAC(st *Scratch, segs ...[]byte) [blockSize]byte {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	n := (total + blockSize - 1) / blockSize
	lastComplete := n > 0 && total%blockSize == 0
	if n == 0 {
		n = 1
	}

	// Assemble the concatenation block by block with a copy cursor,
	// encrypting every block but the last as it fills.
	x, blk := &st.x, &st.blk
	*x = [blockSize]byte{}
	blkLen, blocksDone := 0, 0
	for _, s := range segs {
		for len(s) > 0 {
			c := copy(blk[blkLen:], s)
			blkLen += c
			s = s[c:]
			if blkLen == blockSize && blocksDone < n-1 {
				for j := 0; j < blockSize; j++ {
					x[j] ^= blk[j]
				}
				kc.block.Encrypt(x[:], x[:])
				blocksDone++
				blkLen = 0
			}
		}
	}

	if lastComplete {
		for j := 0; j < blockSize; j++ {
			blk[j] ^= kc.k1[j]
		}
	} else {
		for j := blkLen; j < blockSize; j++ {
			blk[j] = 0
		}
		blk[blkLen] = 0x80
		for j := 0; j < blockSize; j++ {
			blk[j] ^= kc.k2[j]
		}
	}
	for j := 0; j < blockSize; j++ {
		x[j] ^= blk[j]
	}
	kc.block.Encrypt(st.mac[:], x[:])
	return st.mac
}

// Encrypt runs one raw AES block encryption (dst and src are 16 bytes).
// Exposed for the join-accept and key-derivation paths, which use the
// block primitive directly per the specification.
func (kc *KeyCipher) Encrypt(dst, src []byte) { kc.block.Encrypt(dst, src) }

// Decrypt runs one raw AES block decryption (dst and src are 16 bytes).
func (kc *KeyCipher) Decrypt(dst, src []byte) { kc.block.Decrypt(dst, src) }

// CMAC computes the 16-byte AES-CMAC of msg under key (16 bytes). It is
// the raw-key convenience over NewKeyCipher + MAC; callers on a hot path
// should hold a KeyCipher instead.
func CMAC(key, msg []byte) ([blockSize]byte, error) {
	kc, err := NewKeyCipher(key)
	if err != nil {
		return [blockSize]byte{}, err
	}
	var st Scratch
	return kc.MAC(&st, msg), nil
}

// constantTimeEqual compares MICs without leaking timing.
func constantTimeEqual(a, b []byte) bool {
	return subtle.ConstantTimeCompare(a, b) == 1
}
