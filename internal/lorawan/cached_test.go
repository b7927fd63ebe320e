package lorawan

import (
	"bytes"
	"math/rand"
	"testing"
)

// parseJoinRequest parses a join request under a raw AppKey: a fresh
// KeyCipher per call around ParseJoinRequestCached, the raw-key form the
// join tests drive and the reference the cached path is compared with.
func parseJoinRequest(wire, appKey []byte) (*JoinRequestFrame, error) {
	kc, err := NewKeyCipher(appKey)
	if err != nil {
		return nil, err
	}
	var st Scratch
	jr, err := ParseJoinRequestCached(wire, kc, &st)
	if err != nil {
		return nil, err
	}
	return &jr, nil
}

// TestKeyCipherMACMatchesCMAC pins the cached CMAC against the raw-key
// reference across message lengths spanning the empty, partial-block,
// exact-block and multi-block regimes, and across segment splits: the MIC
// over B0 || msg must not depend on how the segments are sliced.
func TestKeyCipherMACMatchesCMAC(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(0xA0 + i)
	}
	kc, err := NewKeyCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var st Scratch
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 64, 222} {
		msg := make([]byte, n)
		rng.Read(msg)
		want, err := CMAC(key, msg)
		if err != nil {
			t.Fatal(err)
		}
		if got := kc.MAC(&st, msg); got != want {
			t.Errorf("len %d: single-segment MAC diverged from CMAC", n)
		}
		for _, split := range []int{0, 1, n / 2, n} {
			if split > n {
				continue
			}
			if got := kc.MAC(&st, msg[:split], msg[split:]); got != want {
				t.Errorf("len %d split %d: segmented MAC diverged", n, split)
			}
		}
		if got := kc.MAC(&st, nil, msg, nil); got != want {
			t.Errorf("len %d: empty segments perturbed the MAC", n)
		}
	}
}

// TestCachedDataFramePathsMatchLegacy round-trips a data frame through the
// legacy Marshal/ParseDataFrame pair and re-verifies it with the cached
// header-parse + MIC + payload-crypt pipeline an ingest hot path uses.
func TestCachedDataFramePathsMatchLegacy(t *testing.T) {
	nwk, app := make([]byte, 16), make([]byte, 16)
	for i := range nwk {
		nwk[i], app[i] = byte(i), byte(0x80+i)
	}
	f := &DataFrame{
		MType: ConfirmedDataUp, DevAddr: 0x26AA55EE, FCnt: 0xBEEF,
		FOpts: []byte{0x02, 0x30}, HasPort: true, FPort: 12,
		FRMPayload: []byte("cached-path payload"),
	}
	wire, err := f.Marshal(nwk, app)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ParseDataFrame(wire, nwk, app)
	if err != nil {
		t.Fatal(err)
	}

	h, ok := ParseDataHeader(wire)
	if !ok {
		t.Fatal("ParseDataHeader rejected a valid frame")
	}
	if h.MType != ref.MType || h.DevAddr != ref.DevAddr || h.FCnt != ref.FCnt ||
		h.FCtrl != ref.FCtrl || h.HasPort != ref.HasPort || h.FPort != ref.FPort {
		t.Errorf("header = %+v, legacy parse = %+v", h, ref)
	}
	nkc, _ := NewKeyCipher(nwk)
	akc, _ := NewKeyCipher(app)
	var st Scratch
	if !nkc.VerifyDataMIC(&st, h.DevAddr, uint32(h.FCnt), h.MType.IsUplink(), wire) {
		t.Error("cached MIC verification refused a valid frame")
	}
	tampered := append([]byte(nil), wire...)
	tampered[len(tampered)-2] ^= 0x40
	if nkc.VerifyDataMIC(&st, h.DevAddr, uint32(h.FCnt), h.MType.IsUplink(), tampered) {
		t.Error("cached MIC verification accepted a tampered frame")
	}
	enc := wire[h.PayloadOff : len(wire)-4]
	plain := akc.CryptPayload(&st, nil, h.DevAddr, uint32(h.FCnt), h.MType.IsUplink(), enc)
	if !bytes.Equal(plain, ref.FRMPayload) {
		t.Errorf("cached decrypt = %q, legacy = %q", plain, ref.FRMPayload)
	}
	// Append-into: decrypting onto a prefix extends without clobbering it.
	buf := append(make([]byte, 0, 64), 'x', 'y')
	buf = akc.CryptPayload(&st, buf, h.DevAddr, uint32(h.FCnt), h.MType.IsUplink(), enc)
	if string(buf[:2]) != "xy" || !bytes.Equal(buf[2:], ref.FRMPayload) {
		t.Errorf("append-into decrypt clobbered its destination: %q", buf)
	}
}

// TestParseDataHeaderRejects mirrors the codec's framing errors.
func TestParseDataHeaderRejects(t *testing.T) {
	if _, ok := ParseDataHeader([]byte{0x40, 1, 2}); ok {
		t.Error("short frame accepted")
	}
	if _, ok := ParseDataHeader(make([]byte, 16)); ok {
		t.Error("JoinRequest MType accepted as data")
	}
	// FOptsLen pointing past the body.
	w := make([]byte, 12)
	w[0] = uint8(UnconfirmedDataUp) << 5
	w[5] = 0x0F
	if _, ok := ParseDataHeader(w); ok {
		t.Error("FOptsLen overrun accepted")
	}
}

// TestCachedJoinPathsMatchLegacy pins the cached join request/accept and
// key-derivation variants byte-for-byte against the raw-key originals.
func TestCachedJoinPathsMatchLegacy(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(0x31 + i)
	}
	kc, _ := NewKeyCipher(key)

	jr := &JoinRequestFrame{AppEUI: 0xA1B2, DevEUI: 0xC3D4, DevNonce: 0x55AA}
	wire, err := jr.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := parseJoinRequest(wire, key)
	if err != nil {
		t.Fatal(err)
	}
	var st Scratch
	got, err := ParseJoinRequestCached(wire, kc, &st)
	if err != nil || got != *ref || got != *jr {
		t.Errorf("cached join parse = %+v (%v), legacy = %+v, sent %+v", got, err, ref, jr)
	}
	wire[3] ^= 1
	if _, err := ParseJoinRequestCached(wire, kc, &st); err != ErrBadMIC {
		t.Errorf("tampered cached join parse = %v, want ErrBadMIC", err)
	}

	acc := &JoinAcceptFrame{AppNonce: 0x00ABCD, NetID: 0x000013, DevAddr: 0x26000007, RxDelay: 1}
	legacy, err := acc.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := acc.MarshalCached(kc)
	if err != nil || !bytes.Equal(legacy, cached) {
		t.Errorf("cached join accept diverged (%v):\n%x\n%x", err, legacy, cached)
	}

	nwkRef, appRef, err := DeriveSessionKeys(key, 0x00ABCD, 0x000013, 0x55AA)
	if err != nil {
		t.Fatal(err)
	}
	nwk, app := DeriveSessionKeysCached(kc, 0x00ABCD, 0x000013, 0x55AA)
	if !bytes.Equal(nwk[:], nwkRef) || !bytes.Equal(app[:], appRef) {
		t.Error("cached key derivation diverged from legacy")
	}
}

// TestCachedVerifyAllocs pins the zero-allocation contract of the cached
// verify path: header parse, MIC check, payload decrypt into a reused
// buffer, and a cached join-request parse must allocate nothing.
func TestCachedVerifyAllocs(t *testing.T) {
	nwk, app := make([]byte, 16), make([]byte, 16)
	for i := range nwk {
		nwk[i], app[i] = byte(i), byte(0x80+i)
	}
	f := &DataFrame{
		MType: UnconfirmedDataUp, DevAddr: 0x2600AA01, FCnt: 9,
		HasPort: true, FPort: 1, FRMPayload: []byte("steady-state payload"),
	}
	wire, err := f.Marshal(nwk, app)
	if err != nil {
		t.Fatal(err)
	}
	nkc, _ := NewKeyCipher(nwk)
	akc, _ := NewKeyCipher(app)
	var st Scratch
	scratch := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		h, ok := ParseDataHeader(wire)
		if !ok {
			t.Fatal("header parse failed")
		}
		if !nkc.VerifyDataMIC(&st, h.DevAddr, uint32(h.FCnt), true, wire) {
			t.Fatal("MIC failed")
		}
		scratch = akc.CryptPayload(&st, scratch[:0], h.DevAddr, uint32(h.FCnt), true, wire[h.PayloadOff:len(wire)-4])
	})
	if allocs != 0 {
		t.Errorf("cached data verify allocates %.1f/op, want 0", allocs)
	}

	dev := &JoinRequestFrame{AppEUI: 1, DevEUI: 2, DevNonce: 3}
	key := make([]byte, 16)
	jw, err := dev.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	kc, _ := NewKeyCipher(key)
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := ParseJoinRequestCached(jw, kc, &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached join parse allocates %.1f/op, want 0", allocs)
	}
}
