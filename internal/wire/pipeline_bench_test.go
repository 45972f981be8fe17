package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attest"
	"repro/internal/lease"
	"repro/internal/ratls"
)

// benchLinkDelay is the simulated one-way response latency for the
// pipelining benchmark. SecureLease's deployment shape is an enclave in
// the wild renewing against a remote SL-Remote, so the interesting number
// is throughput when every reply pays a network delay — not loopback,
// where a single-core box serializes client and server anyway.
const benchLinkDelay = 200 * time.Microsecond

// delayConn simulates propagation delay on writes: each Write is queued
// and delivered to the peer benchLinkDelay later by a pump goroutine, in
// order, WITHOUT blocking the writer. That is what distinguishes latency
// from bandwidth — and what pipelining exists to amortize.
type delayConn struct {
	net.Conn
	d    time.Duration
	ch   chan delayedChunk
	done chan struct{}
	once sync.Once
}

type delayedChunk struct {
	at  time.Time
	buf []byte
}

func newDelayConn(c net.Conn, d time.Duration) *delayConn {
	dc := &delayConn{Conn: c, d: d, ch: make(chan delayedChunk, 4096), done: make(chan struct{})}
	go dc.pump()
	return dc
}

func (dc *delayConn) Write(p []byte) (int, error) {
	buf := append([]byte(nil), p...)
	select {
	case dc.ch <- delayedChunk{at: time.Now().Add(dc.d), buf: buf}:
		return len(p), nil
	case <-dc.done:
		return 0, net.ErrClosed
	}
}

func (dc *delayConn) pump() {
	for {
		select {
		case c := <-dc.ch:
			// Chunks queued while the pump slept for an earlier one have
			// already "propagated": their deadline is in the past and they
			// flush immediately, preserving order.
			if w := time.Until(c.at); w > 0 {
				time.Sleep(w)
			}
			if _, err := dc.Conn.Write(c.buf); err != nil {
				return
			}
		case <-dc.done:
			return
		}
	}
}

func (dc *delayConn) Close() error {
	dc.once.Do(func() { close(dc.done) })
	return dc.Conn.Close()
}

type delayListener struct {
	net.Listener
	d time.Duration
}

func (l delayListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newDelayConn(c, l.d), nil
}

// BenchmarkPipelinedRenewals measures renewal throughput over ONE wire
// connection at different in-flight depths, with benchLinkDelay of
// simulated one-way latency on every server reply. inflight=1 is a
// one-at-a-time peer: each renewal pays the full reply delay
// before the next request leaves. inflight=16 keeps sixteen requests on
// the wire at once, which is the whole point of the correlation-ID demux:
// the link latency is paid once per window instead of once per RPC. The
// CI baseline pins the ≥3× separation between the two.
func BenchmarkPipelinedRenewals(b *testing.B) {
	for _, inflight := range []int{1, 16} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			d := startPipeDeployment(b, func(ln net.Listener) net.Listener {
				return delayListener{Listener: ln, d: benchLinkDelay}
			})
			// Perpetual: every renewal grants one unit without draining a
			// pool, so the benchmark never turns into a denial benchmark.
			const lic = "lic-bench"
			if err := d.remote.RegisterLicense(lic, lease.Perpetual, 1<<50); err != nil {
				b.Fatal(err)
			}
			slids := make([]string, inflight)
			for i := range slids {
				res, err := d.remote.InitClient("", attest.Quote{}, nil)
				if err != nil {
					b.Fatal(err)
				}
				slids[i] = res.SLID
			}
			client, err := Dial(d.addr, ratls.Insecure())
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			client.SetPoolSize(1) // one conn: depth comes from pipelining alone

			var remaining atomic.Int64
			remaining.Store(int64(b.N))
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < inflight; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for remaining.Add(-1) >= 0 {
						if _, err := client.RenewLease(slids[w], lic); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
