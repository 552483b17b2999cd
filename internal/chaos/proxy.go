package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Directions a fault can apply to, from the proxied client's point of view.
const (
	// ToServer is the client→server direction (requests).
	ToServer = 0
	// ToClient is the server→client direction (responses).
	ToClient = 1
)

// Proxy is a faulty wire: it listens on its own address, forwards every
// connection to the target, and injects faults into the byte streams on
// command.  Tests script it directly (SetLatency, Partition, CutNext,
// DropAll); soaks drive it from a seeded Agitator.
//
// Partitions *stall* bytes rather than discarding them: like a real
// network outage, data queued behind the partition is delivered intact
// once it heals, so a framed stream survives a healed partition but times
// out during one.  Resets and cuts, by contrast, kill the TCP connection —
// the client must redial.
type Proxy struct {
	target string
	ln     net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	latency   atomic.Int64 // ns added per read chunk, each direction
	bandwidth atomic.Int64 // bytes/sec per direction (0 = unlimited)
	blocked   [2]atomic.Bool
	cut       [2]atomic.Int64 // >0: cut the stream after this many bytes

	accepted atomic.Int64
	resets   atomic.Int64
	cuts     atomic.Int64
}

// NewProxy starts a proxy in front of target on an ephemeral localhost
// port.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	p := &Proxy{target: target, ln: ln, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

// Addr is the address clients should dial instead of the target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetLatency adds d of delay to every forwarded chunk in both directions.
func (p *Proxy) SetLatency(d time.Duration) { p.latency.Store(int64(d)) }

// SetBandwidth caps each direction at bytesPerSec (0 = unlimited).
func (p *Proxy) SetBandwidth(bytesPerSec int64) { p.bandwidth.Store(bytesPerSec) }

// Partition blocks the given direction (ToServer / ToClient) when on is
// true; bytes stall until the direction is unblocked.  A one-way partition
// "can send, can't receive" is Partition(ToClient, true).
func (p *Proxy) Partition(dir int, on bool) { p.blocked[dir].Store(on) }

// Heal clears latency, bandwidth caps and partitions (armed cuts stay).
func (p *Proxy) Heal() {
	p.latency.Store(0)
	p.bandwidth.Store(0)
	p.blocked[ToServer].Store(false)
	p.blocked[ToClient].Store(false)
}

// CutNext arms a mid-frame truncation: after roughly n more bytes flow in
// the given direction, the stream stops and the connection carrying it is
// reset.  With n smaller than a frame (16-byte header + payload) this tears
// a message in half — the receiving side reads a short frame.
func (p *Proxy) CutNext(dir int, n int64) {
	if n < 1 {
		n = 1
	}
	p.cut[dir].Store(n)
}

// DropAll resets every live proxied connection (both sides), simulating a
// middlebox flushing its flow table.  New connections proxy normally.
func (p *Proxy) DropAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
		delete(p.conns, c)
	}
	p.resets.Add(1)
}

// Stats reports fault-injection counters: accepted connections, DropAll
// resets, and executed cuts.
func (p *Proxy) Stats() (accepted, resets, cuts int64) {
	return p.accepted.Load(), p.resets.Load(), p.cuts.Load()
}

// Close stops the listener and kills all proxied connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.conns = nil
	p.mu.Unlock()
	return p.ln.Close()
}

func (p *Proxy) acceptLoop() {
	for {
		cli, err := p.ln.Accept()
		if err != nil {
			return
		}
		srv, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			cli.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			cli.Close()
			srv.Close()
			return
		}
		p.conns[cli] = struct{}{}
		p.conns[srv] = struct{}{}
		p.mu.Unlock()
		p.accepted.Add(1)
		go p.pump(cli, srv, ToServer)
		go p.pump(srv, cli, ToClient)
	}
}

// pump copies src→dst applying the faults armed for dir.  Any error tears
// down both halves of the pair.
func (p *Proxy) pump(src, dst net.Conn, dir int) {
	defer func() {
		src.Close()
		dst.Close()
		p.mu.Lock()
		if !p.closed {
			delete(p.conns, src)
			delete(p.conns, dst)
		}
		p.mu.Unlock()
	}()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.throttle(dir, n) {
				return // proxy closed while stalled
			}
			out := buf[:n]
			if c := p.cut[dir].Load(); c > 0 {
				if int64(n) >= c {
					// Deliver the first c bytes of the frame, then kill the
					// connection: the receiver decodes a torn message.
					dst.Write(out[:c])
					p.cut[dir].Store(0)
					p.cuts.Add(1)
					return
				}
				p.cut[dir].Store(c - int64(n))
			}
			if _, werr := dst.Write(out); werr != nil {
				return
			}
		}
		if err != nil {
			// EOF or teardown: this protocol never half-closes, so dropping
			// both halves (via the deferred Close) is faithful enough.
			return
		}
	}
}

// throttle applies latency, partition stalls and bandwidth pacing for one
// chunk of n bytes.  It returns false when the proxy closed mid-stall.
func (p *Proxy) throttle(dir int, n int) bool {
	if d := p.latency.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	for p.blocked[dir].Load() {
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return false
		}
		time.Sleep(2 * time.Millisecond) // stall until the partition heals
	}
	if bw := p.bandwidth.Load(); bw > 0 {
		time.Sleep(time.Duration(int64(n) * int64(time.Second) / bw))
	}
	return true
}

// Agitator drives one or more proxies with a seeded-random fault schedule.
// Each Round picks a proxy and a fault class, holds the fault for a
// seed-determined duration, heals, and reports what it did — the soak's
// reproducible storm.
type Agitator struct {
	rng        *rand.Rand
	proxies    []*Proxy
	disks      []string      // FileStore dirs eligible for bit rot (see AddDisk)
	MaxLatency time.Duration // latency-spike ceiling (default 10ms)
	MaxOutage  time.Duration // partition/outage hold ceiling (default 120ms)
	MaxFlips   int           // bit flips per disk event ceiling (default 8)
}

// NewAgitator seeds a fault schedule over the given proxies.  The same seed
// over the same proxies yields the same sequence of (proxy, fault, hold)
// choices.
func NewAgitator(seed int64, proxies ...*Proxy) *Agitator {
	return &Agitator{
		rng:        rand.New(rand.NewSource(seed)),
		proxies:    proxies,
		MaxLatency: 10 * time.Millisecond,
		MaxOutage:  120 * time.Millisecond,
		MaxFlips:   8,
	}
}

// AddDisk opts a FileStore directory into the storm: rounds may then flip
// bits in its sealed segments (class "disk").  Disk faults are strictly
// opt-in — an agitator with no disks draws from the same five network
// classes as before, so existing seeded schedules replay unchanged.
func (a *Agitator) AddDisk(dir string) { a.disks = append(a.disks, dir) }

// Round injects one fault, holds it, heals, and returns a description.
func (a *Agitator) Round() string {
	classes := 5
	if len(a.disks) > 0 {
		classes = 6
	}
	p := a.proxies[a.rng.Intn(len(a.proxies))]
	hold := time.Duration(1 + a.rng.Int63n(int64(a.MaxOutage))) // ≥1ns, <MaxOutage+1
	switch a.rng.Intn(classes) {
	case 0:
		d := time.Duration(1 + a.rng.Int63n(int64(a.MaxLatency)))
		p.SetLatency(d)
		time.Sleep(hold)
		p.Heal()
		return fmt.Sprintf("latency %v on %s for %v", d.Round(time.Millisecond), p.Addr(), hold.Round(time.Millisecond))
	case 1:
		p.DropAll()
		return fmt.Sprintf("reset all conns on %s", p.Addr())
	case 2:
		p.Partition(ToClient, true)
		time.Sleep(hold)
		p.Heal()
		return fmt.Sprintf("one-way partition (to-client) on %s for %v", p.Addr(), hold.Round(time.Millisecond))
	case 3:
		p.Partition(ToServer, true)
		time.Sleep(hold)
		p.Heal()
		return fmt.Sprintf("one-way partition (to-server) on %s for %v", p.Addr(), hold.Round(time.Millisecond))
	case 4:
		n := 1 + a.rng.Int63n(64)
		p.CutNext(ToClient, n)
		time.Sleep(hold)
		return fmt.Sprintf("cut to-client stream on %s after %d bytes", p.Addr(), n)
	default:
		dir := a.disks[a.rng.Intn(len(a.disks))]
		flips := 1 + a.rng.Intn(a.MaxFlips)
		victim, err := CorruptSegment(dir, a.rng.Int63(), flips)
		if err != nil {
			// No sealed segment yet: the draw is burned (keeping the seeded
			// schedule deterministic) and the round reports a no-op.
			return fmt.Sprintf("disk rot skipped on %s (%v)", dir, err)
		}
		return fmt.Sprintf("disk rot: %d bit flip(s) in %s", flips, filepath.Base(victim))
	}
}
