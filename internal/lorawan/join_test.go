package lorawan

import (
	"bytes"
	"testing"
)

func appKey() []byte { return bytes.Repeat([]byte{0x88}, 16) }

func TestJoinRequestRoundTrip(t *testing.T) {
	j := &JoinRequestFrame{AppEUI: 0x70B3D57ED0000001, DevEUI: 0x0004A30B001C0530, DevNonce: 0xBEEF}
	wire, err := j.Marshal(appKey())
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseJoinRequest(wire, appKey())
	if err != nil {
		t.Fatal(err)
	}
	if got.AppEUI != j.AppEUI || got.DevEUI != j.DevEUI || got.DevNonce != j.DevNonce {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestJoinRequestMIC(t *testing.T) {
	j := &JoinRequestFrame{AppEUI: 1, DevEUI: 2, DevNonce: 3}
	wire, err := j.Marshal(appKey())
	if err != nil {
		t.Fatal(err)
	}
	for i := range wire {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x80
		if _, err := parseJoinRequest(bad, appKey()); err == nil {
			t.Errorf("tampering at byte %d undetected", i)
		}
	}
	if _, err := parseJoinRequest(wire[:10], appKey()); err != ErrTooShort {
		t.Errorf("short frame: %v", err)
	}
}

func TestJoinAcceptRoundTrip(t *testing.T) {
	j := &JoinAcceptFrame{
		AppNonce: 0xABCDEF, NetID: 0x000013, DevAddr: 0x26012345,
		DLSettings: 0x03, RxDelay: 1,
	}
	wire, err := j.Marshal(appKey())
	if err != nil {
		t.Fatal(err)
	}
	// The content must be encrypted on the wire.
	if bytes.Contains(wire, []byte{0xEF, 0xCD, 0xAB}) {
		t.Error("join accept content visible on the wire")
	}
	got, err := ParseJoinAccept(wire, appKey())
	if err != nil {
		t.Fatal(err)
	}
	if got.AppNonce != j.AppNonce || got.NetID != j.NetID || got.DevAddr != j.DevAddr {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.DLSettings != 3 || got.RxDelay != 1 {
		t.Errorf("settings mismatch: %+v", got)
	}
}

func TestJoinAcceptWrongKey(t *testing.T) {
	j := &JoinAcceptFrame{AppNonce: 1, NetID: 2, DevAddr: 3}
	wire, err := j.Marshal(appKey())
	if err != nil {
		t.Fatal(err)
	}
	wrong := bytes.Repeat([]byte{0x99}, 16)
	if _, err := ParseJoinAccept(wire, wrong); err != ErrBadMIC {
		t.Errorf("wrong key: %v, want ErrBadMIC", err)
	}
}

func TestSessionKeyDerivationAndUse(t *testing.T) {
	// Full OTAA flow: join request, join accept, key derivation on both
	// sides, then a data frame protected by the derived keys.
	req := &JoinRequestFrame{AppEUI: 10, DevEUI: 20, DevNonce: 0x1234}
	acc := &JoinAcceptFrame{AppNonce: 0x010203, NetID: 0x000042, DevAddr: 0x26000001}

	nwk1, app1, err := DeriveSessionKeys(appKey(), acc.AppNonce, acc.NetID, req.DevNonce)
	if err != nil {
		t.Fatal(err)
	}
	nwk2, app2, err := DeriveSessionKeys(appKey(), acc.AppNonce, acc.NetID, req.DevNonce)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(nwk1, nwk2) || !bytes.Equal(app1, app2) {
		t.Fatal("derivation not deterministic")
	}
	if bytes.Equal(nwk1, app1) {
		t.Fatal("NwkSKey == AppSKey")
	}
	// Different nonces give different keys.
	nwk3, _, _ := DeriveSessionKeys(appKey(), acc.AppNonce, acc.NetID, req.DevNonce+1)
	if bytes.Equal(nwk1, nwk3) {
		t.Error("DevNonce change did not change the keys")
	}

	f := &DataFrame{MType: UnconfirmedDataUp, DevAddr: acc.DevAddr, FCnt: 1,
		HasPort: true, FPort: 1, FRMPayload: []byte("joined!")}
	wire, err := f.Marshal(nwk1, app1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseDataFrame(wire, nwk2, app2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.FRMPayload) != "joined!" {
		t.Errorf("payload %q", got.FRMPayload)
	}
}

// TestParseJoinRequestBadMIC pins the exact failure mode: an authentic
// frame under the wrong key, or a frame with a damaged MIC, must fail
// with ErrBadMIC specifically (not a generic error), because the
// netserver's drop taxonomy keys off that sentinel.
func TestParseJoinRequestBadMIC(t *testing.T) {
	j := &JoinRequestFrame{AppEUI: 1, DevEUI: 2, DevNonce: 3}
	wire, err := j.Marshal(appKey())
	if err != nil {
		t.Fatal(err)
	}
	wrong := bytes.Repeat([]byte{0x99}, 16)
	if _, err := parseJoinRequest(wire, wrong); err != ErrBadMIC {
		t.Errorf("wrong key: %v, want ErrBadMIC", err)
	}
	for i := len(wire) - 4; i < len(wire); i++ {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x01
		if _, err := parseJoinRequest(bad, appKey()); err != ErrBadMIC {
			t.Errorf("MIC byte %d flipped: %v, want ErrBadMIC", i, err)
		}
	}
	bad := append([]byte(nil), wire...)
	bad[0] = uint8(JoinAccept) << 5
	if _, err := parseJoinRequest(bad, appKey()); err != ErrBadMType {
		t.Errorf("wrong mtype: %v, want ErrBadMType", err)
	}
}

// TestParseJoinRequestNoReplayProtection documents the contract split: the
// stateless codec accepts a replayed-but-authentic frame every time, and
// refusing reused DevNonces is the network server's responsibility.
func TestParseJoinRequestNoReplayProtection(t *testing.T) {
	j := &JoinRequestFrame{AppEUI: 1, DevEUI: 2, DevNonce: 0x4444}
	wire, err := j.Marshal(appKey())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := parseJoinRequest(wire, appKey())
		if err != nil {
			t.Fatalf("replay %d: %v (the codec must stay stateless; replay defense lives in the caller)", i, err)
		}
		if got.DevNonce != 0x4444 {
			t.Fatalf("replay %d: nonce %04x", i, got.DevNonce)
		}
	}
}

// TestDeriveSessionKeysBadKey: the only validation is the AES key length.
func TestDeriveSessionKeysBadKey(t *testing.T) {
	if _, _, err := DeriveSessionKeys([]byte("short"), 1, 2, 3); err == nil {
		t.Error("5-byte AppKey accepted")
	}
	if _, _, err := DeriveSessionKeys(nil, 1, 2, 3); err == nil {
		t.Error("nil AppKey accepted")
	}
}

func TestEUIString(t *testing.T) {
	if EUI(0xAB).String() != "00000000000000AB" {
		t.Errorf("EUI format: %s", EUI(0xAB))
	}
}

func TestParseJoinAcceptBadInput(t *testing.T) {
	if _, err := ParseJoinAccept(make([]byte, 5), appKey()); err != ErrTooShort {
		t.Errorf("short: %v", err)
	}
	wire := make([]byte, 17)
	wire[0] = uint8(JoinRequest) << 5
	if _, err := ParseJoinAccept(wire, appKey()); err != ErrBadMType {
		t.Errorf("wrong type: %v", err)
	}
}
