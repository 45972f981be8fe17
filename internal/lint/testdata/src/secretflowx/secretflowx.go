// Package secretflowx is a golden fixture for interprocedural secretflow:
// taint crossing function boundaries through parameters, returns, and
// sanitizing wrappers — none of these flows is visible to a single-
// function analysis.
package secretflowx

import (
	"crypto/rand"
	"log"

	"repro/internal/seccrypto"
	"repro/internal/wire"
)

// relay is a neutral helper: nothing in its body names a secret, but its
// summary records that the parameter reaches log.Printf.
func relay(note string) {
	log.Printf("note: %s", note)
}

// LeakViaRelay passes key bytes through the neutral helper: the report
// lands at the call site, where the secret actually enters the flow.
func LeakViaRelay(key seccrypto.Key) {
	relay(string(key.Bytes())) // want `secret value passed to relay, which forwards it to log.Printf`
}

// RelayClean passes an honest note through the same helper: the summary
// is parameter-relative, so clean arguments stay clean.
func RelayClean() {
	relay("lease renewed")
}

// loadRootKey returns secret material: its result summary carries
// intrinsic taint into every caller.
func loadRootKey() []byte {
	rootKey := []byte("0123456789abcdef")
	return rootKey
}

// LeakViaReturn logs the tainted return value of a helper whose body it
// never sees.
func LeakViaReturn() {
	k := loadRootKey()
	log.Printf("boot key %x", k) // want `secret value reaches untrusted sink log.Printf`
}

// sealFor wraps the sanitizer: the helper's return is sealed ciphertext,
// so the transfer of the sanitizer summary keeps callers clean.
func sealFor(key seccrypto.Key, payload []byte) []byte {
	sealed, err := seccrypto.ProtectWithKey(payload, key, rand.Reader)
	if err != nil {
		return nil
	}
	return sealed
}

// SealedViaHelper logs ciphertext produced by the wrapping helper: clean.
func SealedViaHelper(key seccrypto.Key, payload []byte) {
	log.Printf("sealed %x", sealFor(key, payload))
}

// forward hops taint across two levels: relay's summary feeds forward's,
// and the report still lands on the outermost call site.
func forward(v string) {
	relay(v)
}

// LeakTwoHops exercises summary transitivity.
func LeakTwoHops(key seccrypto.Key) {
	forward(string(key.Bytes())) // want `secret value passed to forward, which forwards it to log.Printf`
}

// keyBuffer copies the key into a fresh buffer, the way seccrypto.Key.Bytes
// does: copy moves the key's taint into buf, so the result summary carries
// it even though no assignment ever names the key on its right-hand side.
func keyBuffer(key seccrypto.Key) []byte {
	buf := make([]byte, seccrypto.KeySize)
	copy(buf, key.Bytes())
	return buf
}

// LeakViaCopy puts the copied key into an unsealed wire field.
func LeakViaCopy(slid string, key seccrypto.Key) wire.EscrowRequest {
	return wire.EscrowRequest{SLID: slid, Key: keyBuffer(key)} // want `secret value stored in unsealed wire field EscrowRequest.Key`
}

// CopyClean copies non-secret bytes through the same shape: clean.
func CopyClean(slid string) wire.EscrowRequest {
	buf := make([]byte, len(slid))
	copy(buf, slid)
	return wire.EscrowRequest{SLID: slid, Key: buf}
}
