package lorawan

import (
	"encoding/binary"
	"fmt"
)

// Over-the-air activation (LoRaWAN 1.0 §6.2): the join request/accept
// exchange and the session key derivation.

// EUI is a 64-bit extended unique identifier.
type EUI uint64

// String renders the EUI as 16 upper-case hex digits (the "%016X" form),
// hand-rolled because the session cache builds it on the join path and
// fmt.Sprintf costs several allocations there.
func (e EUI) String() string {
	var b [16]byte
	v := uint64(e)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = upperhex[v&0xF]
		v >>= 4
	}
	return string(b[:])
}

const upperhex = "0123456789ABCDEF"

// JoinRequestFrame is the device's join request.
type JoinRequestFrame struct {
	AppEUI   EUI
	DevEUI   EUI
	DevNonce uint16
}

// Marshal serializes the join request and appends its 4-byte MIC, the
// AES-CMAC of MHDR||AppEUI||DevEUI||DevNonce under the 16-byte AppKey.
func (j *JoinRequestFrame) Marshal(appKey []byte) ([]byte, error) {
	buf := make([]byte, 0, 1+8+8+2+micLen)
	buf = append(buf, uint8(JoinRequest)<<5)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(j.AppEUI))
	buf = append(buf, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(j.DevEUI))
	buf = append(buf, b8[:]...)
	var b2 [2]byte
	binary.LittleEndian.PutUint16(b2[:], j.DevNonce)
	buf = append(buf, b2[:]...)
	mac, err := CMAC(appKey, buf)
	if err != nil {
		return nil, err
	}
	return append(buf, mac[:micLen]...), nil
}

// ParseJoinRequestCached parses a join request and verifies its MIC under
// a cached AppKey cipher in constant time, returning ErrBadMIC on any
// tampering and ErrTooShort/ErrBadMType on framing errors. It returns the
// frame by value so the verify hot path allocates nothing.
//
// It deliberately does NOT track DevNonce reuse: the codec is stateless,
// and a replayed-but-authentic frame parses successfully every time.
// Replay protection is the caller's job — the network server must refuse
// a (DevEUI, DevNonce) pair it has already activated (see
// internal/netserver), or an attacker who recorded one join can force a
// rekey at will.
func ParseJoinRequestCached(wire []byte, kc *KeyCipher, st *Scratch) (JoinRequestFrame, error) {
	if len(wire) != 1+8+8+2+micLen {
		return JoinRequestFrame{}, ErrTooShort
	}
	if MType(wire[0]>>5) != JoinRequest {
		return JoinRequestFrame{}, ErrBadMType
	}
	body := wire[:len(wire)-micLen]
	mac := kc.MAC(st, body)
	if !constantTimeEqual(wire[len(wire)-micLen:], mac[:micLen]) {
		return JoinRequestFrame{}, ErrBadMIC
	}
	return JoinRequestFrame{
		AppEUI:   EUI(binary.LittleEndian.Uint64(wire[1:9])),
		DevEUI:   EUI(binary.LittleEndian.Uint64(wire[9:17])),
		DevNonce: binary.LittleEndian.Uint16(wire[17:19]),
	}, nil
}

// JoinAcceptFrame is the network's join accept.
type JoinAcceptFrame struct {
	AppNonce   uint32 // 24 bits used
	NetID      uint32 // 24 bits used
	DevAddr    DevAddr
	DLSettings uint8
	RxDelay    uint8
}

// Marshal serializes the join accept: the content is MIC'd and then
// AES-*decrypted* under the AppKey (so the constrained device only ever
// needs the encrypt primitive, per the specification).
func (j *JoinAcceptFrame) Marshal(appKey []byte) ([]byte, error) {
	kc, err := NewKeyCipher(appKey)
	if err != nil {
		return nil, err
	}
	return j.MarshalCached(kc)
}

// MarshalCached is Marshal under a cached AppKey cipher.
func (j *JoinAcceptFrame) MarshalCached(kc *KeyCipher) ([]byte, error) {
	var st Scratch
	return j.MarshalScratch(kc, &st)
}

// MarshalScratch is MarshalCached with caller-owned scratch. It allocates
// nothing but the returned wire image: the content stages in st.b0, which
// MAC documents as alias-safe.
func (j *JoinAcceptFrame) MarshalScratch(kc *KeyCipher, st *Scratch) ([]byte, error) {
	content := st.b0[:0]
	content = append(content, uint8(j.AppNonce), uint8(j.AppNonce>>8), uint8(j.AppNonce>>16))
	content = append(content, uint8(j.NetID), uint8(j.NetID>>8), uint8(j.NetID>>16))
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(j.DevAddr))
	content = append(content, b4[:]...)
	content = append(content, j.DLSettings, j.RxDelay)

	mhdr := [1]byte{uint8(JoinAccept) << 5}
	mac := kc.MAC(st, mhdr[:], content)
	plain := append(content, mac[:micLen]...) // fits the blockSize cap
	if len(plain)%blockSize != 0 {
		return nil, fmt.Errorf("lorawan: join accept content %d bytes, want multiple of 16", len(plain))
	}
	out := make([]byte, 1+len(plain))
	out[0] = mhdr[0]
	for i := 0; i < len(plain); i += blockSize {
		kc.Decrypt(out[1+i:1+i+blockSize], plain[i:i+blockSize])
	}
	return out, nil
}

// ParseJoinAccept decrypts (by encrypting, as the device does), verifies
// and parses a join accept.
func ParseJoinAccept(wire, appKey []byte) (*JoinAcceptFrame, error) {
	if len(wire) != 1+16 {
		return nil, ErrTooShort
	}
	if MType(wire[0]>>5) != JoinAccept {
		return nil, ErrBadMType
	}
	kc, err := NewKeyCipher(appKey)
	if err != nil {
		return nil, err
	}
	plain := make([]byte, 16)
	kc.Encrypt(plain, wire[1:])

	var st Scratch
	content, mic := plain[:12], plain[12:]
	mac := kc.MAC(&st, wire[:1], content)
	if !constantTimeEqual(mic, mac[:micLen]) {
		return nil, ErrBadMIC
	}
	return &JoinAcceptFrame{
		AppNonce:   uint32(content[0]) | uint32(content[1])<<8 | uint32(content[2])<<16,
		NetID:      uint32(content[3]) | uint32(content[4])<<8 | uint32(content[5])<<16,
		DevAddr:    DevAddr(binary.LittleEndian.Uint32(content[6:10])),
		DLSettings: content[10],
		RxDelay:    content[11],
	}, nil
}

// DeriveSessionKeys computes NwkSKey and AppSKey from the join exchange
// (LoRaWAN 1.0 §6.2.5): each is one AES-ECB encryption of a tagged
// AppNonce||NetID||DevNonce block under the AppKey.
//
// The derivation is pure and deterministic — same inputs, same keys, on
// the device and the network alike — and performs no validation beyond
// the AES key length: it cannot tell a verified exchange from a forged
// one. Callers must only feed it nonces from a MIC-verified join
// (ParseJoinRequestCached / ParseJoinAccept), and both sides must use the
// exact nonce values from the wire, or the derived keys silently
// diverge and every subsequent frame fails its MIC.
func DeriveSessionKeys(appKey []byte, appNonce, netID uint32, devNonce uint16) (nwkSKey, appSKey []byte, err error) {
	kc, err := NewKeyCipher(appKey)
	if err != nil {
		return nil, nil, err
	}
	nwk, app := DeriveSessionKeysCached(kc, appNonce, netID, devNonce)
	return nwk[:], app[:], nil
}

// DeriveSessionKeysCached is DeriveSessionKeys under a cached AppKey
// cipher, returning the keys by value.
func DeriveSessionKeysCached(kc *KeyCipher, appNonce, netID uint32, devNonce uint16) (nwkSKey, appSKey [blockSize]byte) {
	var st Scratch
	return DeriveSessionKeysScratch(kc, &st, appNonce, netID, devNonce)
}

// DeriveSessionKeysScratch is DeriveSessionKeysCached with caller-owned
// scratch: the local Scratch above escapes through the cipher interface,
// so the per-join hot path passes its own instead and allocates nothing.
func DeriveSessionKeysScratch(kc *KeyCipher, st *Scratch, appNonce, netID uint32, devNonce uint16) (nwkSKey, appSKey [blockSize]byte) {
	in := &st.b0
	*in = [blockSize]byte{} // the tail of the block is zero padding
	in[1], in[2], in[3] = uint8(appNonce), uint8(appNonce>>8), uint8(appNonce>>16)
	in[4], in[5], in[6] = uint8(netID), uint8(netID>>8), uint8(netID>>16)
	binary.LittleEndian.PutUint16(in[7:9], devNonce)
	in[0] = 0x01
	kc.Encrypt(st.ks[:], in[:])
	nwkSKey = st.ks
	in[0] = 0x02
	kc.Encrypt(st.ks[:], in[:])
	appSKey = st.ks
	return nwkSKey, appSKey
}
