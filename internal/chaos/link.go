package chaos

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/attest"
	"repro/internal/seccrypto"
	"repro/internal/sgx"
	"repro/internal/slremote"
)

// ErrDropped reports a request the link lost on every attempt.
var ErrDropped = errors.New("chaos: message dropped")

// ErrLinkDown reports a request sent while the link is partitioned.
var ErrLinkDown = errors.New("chaos: link is down")

// Link is the seeded stochastic model of the network between one SL-Local
// and SL-Remote: each request is delivered with probability reliability
// (Algorithm 1's n: 0 = dead network, 1 = stable network), and SetDown
// partitions the link outright. All randomness comes from the seed, so a
// run replays exactly. It is safe for concurrent use.
type Link struct {
	mu          sync.Mutex
	rng         *rand.Rand
	reliability float64
	down        bool
}

// NewLink returns a link that delivers each request with probability
// reliability, drawing from a PRNG seeded with seed.
func NewLink(reliability float64, seed int64) *Link {
	return &Link{rng: rand.New(rand.NewSource(seed)), reliability: reliability}
}

// SetDown partitions or heals the link.
func (l *Link) SetDown(down bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = down
}

// send draws one request's fate.
func (l *Link) send() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return ErrLinkDown
	}
	if l.rng.Float64() >= l.reliability {
		return ErrDropped
	}
	return nil
}

// Delivery attempts per request, and the timeout a dropped attempt costs
// before the next one.
const (
	sendAttempts = 3
	dropPenalty  = 200 * time.Millisecond
)

// Remote is an in-process SL-Remote reached over a Link: it satisfies
// sllocal.RemoteAPI, and every call first asks the link whether the
// request gets through. The draw comes before the delegate call, so a drop
// is always a lost request, never a lost reply, and the server's state
// never sees it.
type Remote struct {
	link    *Link
	server  *slremote.Server
	machine *sgx.Machine
}

// Wrap returns server as seen from machine across the link. Dropped
// attempts cost the caller a round trip of dropPenalty each, charged to
// machine's clock.
func (l *Link) Wrap(server *slremote.Server, machine *sgx.Machine) *Remote {
	return &Remote{link: l, server: server, machine: machine}
}

// deliver makes up to sendAttempts attempts at one request; a partition
// fails at once.
func (r *Remote) deliver() error {
	var lost time.Duration
	var err error
	for i := 0; i < sendAttempts; i++ {
		if err = r.link.send(); err == nil || errors.Is(err, ErrLinkDown) {
			break
		}
		lost += dropPenalty
	}
	r.machine.ChargeCompute(r.machine.Model().DurationToCycles(2 * lost))
	return err
}

// InitClient delivers the init request, then runs it on the server.
func (r *Remote) InitClient(slid string, quote attest.Quote, clientMachine *sgx.Machine) (slremote.InitResult, error) {
	if err := r.deliver(); err != nil {
		return slremote.InitResult{}, err
	}
	return r.server.InitClient(slid, quote, clientMachine)
}

// RenewLease delivers the renewal request, then runs it on the server.
func (r *Remote) RenewLease(slid, licenseID string) (slremote.Grant, error) {
	if err := r.deliver(); err != nil {
		return slremote.Grant{}, err
	}
	return r.server.RenewLease(slid, licenseID)
}

// EscrowRootKey delivers the escrow request, then runs it on the server.
func (r *Remote) EscrowRootKey(slid string, key seccrypto.Key) error {
	if err := r.deliver(); err != nil {
		return err
	}
	return r.server.EscrowRootKey(slid, key)
}
