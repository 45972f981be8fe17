package chaos

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
)

// Connection fault kinds. All match Write calls on wrapped connections.
// The wire layer coalesces: one Write carries one whole frame or a burst of
// them (whatever the last writer of a burst flushed), so a fault hits a
// burst, not an envelope, and a cut or corruption lands between envelopes
// or mid-envelope — both are failure modes a real network serves up.
const (
	// Drop swallows one write: the caller sees success, the peer sees
	// silence and times out.
	Drop = "drop"
	// Delay sleeps briefly before a write goes through.
	Delay = "delay"
	// Dup writes the bytes twice and then severs the connection: the peer
	// decodes the first copy and must not decode the retransmitted bytes
	// into a phantom message. Severing keeps the fault self-contained —
	// a desynced but open stream would let the server answer a misparsed
	// later request at an uncontrolled moment, destroying the determinism
	// of the shared write counter. For the same reason the connection
	// stops delivering reads the moment the fault fires (see Conn.Read):
	// the peer has a complete reply in hand after the first copy, and its
	// next request must not slip in ahead of the close.
	Dup = "dup"
	// Cut writes the first half of the bytes and closes the connection:
	// the peer decodes whatever whole frames the prefix holds and then
	// hits the (usually mid-envelope) connection cut.
	Cut = "cut"
	// Reset closes the connection instead of writing.
	Reset = "reset"
	// Corrupt flips one byte mid-write and then severs the connection:
	// over a plaintext stream the peer decodes garbage, over TLS the
	// record MAC fails and the session dies with an authentication
	// error. Severing keeps the fault self-contained, as with Dup.
	Corrupt = "corrupt"
	// Reorder holds one write's bytes back and releases them after the
	// connection's NEXT write goes through first. A write is one or more
	// whole frames, so this moves whole messages behind later ones — the
	// out-of-order delivery a pipelining client's demux must survive.
	// The next write may never come (a whole wave of replies can share the
	// held write, and every waiter is then parked on it), so a timer
	// releases the bytes after delayDuration: a reorder delays, it never
	// stalls. Bytes still held when the connection closes are flushed
	// before the close, so a reorder never degrades to a drop; a severing
	// fault firing while bytes are held may still lose them.
	Reorder = "reorder"
)

// ErrConnFault reports a write the injector failed on purpose.
var ErrConnFault = errors.New("chaos: injected connection fault")

// delayDuration is the pause injected by Delay faults and the longest a
// Reorder fault holds bytes back — long enough to reorder against other
// goroutines' work, short enough to stay far from any test deadline.
const delayDuration = 5 * time.Millisecond

// ConnFault is one armed connection fault.
type ConnFault struct {
	// Kind is Drop, Delay, Dup, Cut, Reset, Corrupt, or Reorder.
	Kind string
	// After skips this many writes before firing (0 fires on the next
	// write through any wrapped connection).
	After int
}

// NetDirector arms and fires connection faults for every connection
// wrapped with it, sharing one write counter so a seed maps to one global
// fault position. An optional netsim.Link contributes stochastic drops on
// top of the armed (deterministic) faults.
type NetDirector struct {
	mu     sync.Mutex
	writes int64
	conns  int64
	armed  []*armedConn
	link   *netsim.Link
	trace  []Event
}

type armedConn struct {
	fault     ConnFault
	remaining int
}

// NewNetDirector returns a director with no faults armed.
func NewNetDirector() *NetDirector { return &NetDirector{} }

// Arm schedules one fault on the next matching write.
func (d *NetDirector) Arm(f ConnFault) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.armed = append(d.armed, &armedConn{fault: f, remaining: f.After})
}

// AttachLink adds a netsim reliability model: every write first asks the
// link whether it survives, and a netsim drop behaves like a Drop fault
// (recorded in the trace as "link-drop"). The link's seeded RNG keeps the
// composition deterministic.
func (d *NetDirector) AttachLink(l *netsim.Link) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.link = l
}

// Writes returns the shared write counter.
func (d *NetDirector) Writes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// Trace returns the faults fired so far, in order.
func (d *NetDirector) Trace() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Event(nil), d.trace...)
}

// decide counts one write on conn and picks its fate: "" passes through.
func (d *NetDirector) decide(conn string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writes++
	for i, a := range d.armed {
		if a.remaining > 0 {
			a.remaining--
			continue
		}
		d.armed = append(d.armed[:i], d.armed[i+1:]...)
		d.trace = append(d.trace, Event{Domain: "net", Op: d.writes, Kind: a.fault.Kind, Detail: conn})
		return a.fault.Kind
	}
	if d.link != nil {
		if _, err := d.link.Send(); err != nil {
			d.trace = append(d.trace, Event{Domain: "net", Op: d.writes, Kind: "link-drop", Detail: conn})
			return Drop
		}
	}
	return ""
}

// nextConn labels a wrapped connection by accept/wrap order — stable
// across runs, unlike ephemeral port numbers.
func (d *NetDirector) nextConn() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.conns++
	return fmt.Sprintf("conn-%d", d.conns)
}

// Listener wraps a net.Listener so every accepted connection routes its
// writes through the director. Wrap the SL-Remote side: responses (and
// their absence) are what exercise the client's retry and redial paths.
type Listener struct {
	net.Listener
	dir *NetDirector
}

// WrapListener attaches a director to a listener.
func WrapListener(l net.Listener, d *NetDirector) *Listener {
	return &Listener{Listener: l, dir: d}
}

func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(c, l.dir), nil
}

// Conn is a net.Conn whose writes can be dropped, delayed, duplicated,
// truncated, reordered, or reset by the director. Reads pass through
// untouched — a fault on the peer's writes is a fault on this side's reads
// already — until a severing fault fires.
type Conn struct {
	net.Conn
	dir  *NetDirector
	name string

	// severed is set by Dup, Cut, Reset, and Corrupt before they write
	// anything: from then on Read delivers nothing, so whether a request
	// the peer sent in reaction to the faulted write is served cannot
	// depend on who wins the race to the Close that ends the fault.
	severed atomic.Bool

	hmu   sync.Mutex
	held  []byte      // one write held back by a Reorder fault; guarded by hmu
	flush *time.Timer // releases held after delayDuration; guarded by hmu
}

// WrapConn attaches a director to one connection.
func WrapConn(c net.Conn, d *NetDirector) *Conn {
	return &Conn{Conn: c, dir: d, name: d.nextConn()}
}

// Read passes through until a severing fault has fired; after that the
// connection is dead to its reader even if the peer's bytes beat the
// fault's Close to the socket.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.severed.Load() {
		return 0, net.ErrClosed
	}
	return n, err
}

func (c *Conn) Write(p []byte) (int, error) {
	kind := c.dir.decide(c.name)
	switch kind {
	case Dup, Cut, Reset, Corrupt:
		c.severed.Store(true)
	}
	switch kind {
	case Reorder:
		c.hmu.Lock()
		if c.held == nil {
			c.held = append([]byte(nil), p...)
			c.flush = time.AfterFunc(delayDuration, c.flushHeld)
			c.hmu.Unlock()
			// Held, not lost: the next write, the timer, or Close
			// releases it.
			return len(p), nil
		}
		c.hmu.Unlock()
		// A write is already held; a second hold would just shift which
		// one waits, so fall through and write normally (which also
		// releases the held bytes).
	case Drop:
		// Swallowed whole: report success, deliver nothing.
		return len(p), nil
	case Delay:
		time.Sleep(delayDuration)
	case Dup:
		n, err := c.Conn.Write(p)
		if err != nil {
			return n, err
		}
		_, _ = c.Conn.Write(p)
		_ = c.Conn.Close()
		return n, nil
	case Cut:
		n, _ := c.Conn.Write(p[:len(p)/2])
		_ = c.Conn.Close()
		return n, fmt.Errorf("%w: connection cut mid-write", ErrConnFault)
	case Reset:
		_ = c.Conn.Close()
		return 0, fmt.Errorf("%w: connection reset", ErrConnFault)
	case Corrupt:
		bad := append([]byte(nil), p...)
		bad[len(bad)/2] ^= 0xFF
		n, err := c.Conn.Write(bad)
		_ = c.Conn.Close()
		if err != nil {
			return n, err
		}
		return n, nil
	}
	n, err := c.Conn.Write(p)
	c.flushHeld()
	return n, err
}

// flushHeld writes out the bytes held by a Reorder fault: after the write
// that overtook them, or when the hold's timer fires.
func (c *Conn) flushHeld() {
	c.hmu.Lock()
	h := c.held
	c.held = nil
	if c.flush != nil {
		c.flush.Stop()
		c.flush = nil
	}
	c.hmu.Unlock()
	if len(h) != 0 {
		_, _ = c.Conn.Write(h)
	}
}

// Close flushes any bytes a Reorder fault is still holding, then closes
// the connection: reordering delays delivery, it never suppresses it.
func (c *Conn) Close() error {
	c.flushHeld()
	return c.Conn.Close()
}
