// Package faultnet is a deterministic fault-injecting TCP middlebox for
// testing the cluster layer. A Proxy sits between an agent and the
// service, forwarding bytes in both directions while a per-connection
// script injects latency, byte-level frame truncation, mid-message resets,
// blackholes (accept-then-silence), and drop-at-message-N faults.
//
// The proxy understands the cluster wire format only as far as the 4-byte
// big-endian length prefix, which is enough to trigger faults at exact
// frame boundaries ("drop the Nth message") or at exact byte offsets
// inside a frame ("truncate the reply mid-message") without depending on
// JSON contents.
package faultnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Action is what a Fault does once its trigger fires.
type Action int

const (
	// ActNone leaves the stream alone (latency may still apply).
	ActNone Action = iota
	// ActClose closes the whole connection cleanly (FIN). Fired mid-frame
	// it yields a truncated frame at the receiver.
	ActClose
	// ActReset aborts the connection with an RST (SetLinger(0)), the
	// "mid-message reset" a crashing peer produces.
	ActReset
	// ActBlackhole keeps the connection open and keeps draining the
	// sender, but forwards nothing more in this direction — the
	// accept-then-silence failure that only deadlines can detect.
	ActBlackhole
)

// Fault scripts one direction of one proxied connection.
type Fault struct {
	// Latency delays each forwarded chunk (0: none).
	Latency time.Duration
	// AfterFrames triggers the Action at the 1-based Nth length-prefixed
	// frame: before its first byte when AfterBytes is 0, or after
	// AfterBytes bytes of that frame (byte-level truncation inside a
	// chosen message) when AfterBytes > 0.
	AfterFrames int
	// AfterBytes without AfterFrames triggers after N bytes total.
	AfterBytes int
	// Action fires once the trigger is reached.
	Action Action
}

// ConnScript pairs the two directions of one proxied connection.
type ConnScript struct {
	// Up faults the agent→service direction, Down the service→agent one.
	Up, Down Fault
}

// Proxy is the middlebox. The i-th accepted connection runs scripts[i];
// connections beyond the script are forwarded untouched, so "fault the
// first connection, let the reconnect through" is the natural default.
type Proxy struct {
	target  string
	scripts []ConnScript

	ln net.Listener
	wg sync.WaitGroup

	// silenceAll, while set, blackholes the proxy shard-wide: every
	// forwarder latches silent the next time it wakes, and connections
	// accepted meanwhile start silent (see BlackholeAll).
	silenceAll atomic.Bool

	mu       sync.Mutex
	accepted int
	conns    map[net.Conn]struct{}
	closed   bool
}

// New builds a proxy forwarding to target with the given per-connection
// scripts. Call Listen to start it.
func New(target string, scripts ...ConnScript) *Proxy {
	return &Proxy{target: target, scripts: scripts, conns: map[net.Conn]struct{}{}}
}

// Listen binds the proxy ("127.0.0.1:0" picks a free port) and starts
// accepting.
func (p *Proxy) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("faultnet: listen: %w", err)
	}
	p.ln = ln
	p.wg.Add(1)
	go p.acceptLoop()
	return nil
}

// Addr reports the proxy's bound address — dial this instead of the
// service.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Accepted reports how many connections the proxy has accepted so far.
func (p *Proxy) Accepted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

// BlackholeAll silences the proxy shard-wide: every currently proxied
// connection stops forwarding (in both directions) the moment its
// forwarder next wakes, and connections accepted while the blackhole
// holds start silent. Dials still succeed — the accept-then-silence
// failure of ActBlackhole, but applied to the whole shard rather than one
// scripted connection, which is what "blackhole one shard mid-ingest"
// needs.
func (p *Proxy) BlackholeAll() { p.silenceAll.Store(true) }

// Restore lifts a BlackholeAll for subsequently accepted connections.
// Already-silenced connections stay dead (bytes they drained were never
// forwarded, so their streams have holes), exactly like TCP flows across
// a healed partition: peers must redial.
func (p *Proxy) Restore() { p.silenceAll.Store(false) }

// Close stops the listener, severs every proxied connection, and waits for
// the forwarding goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
	var err error
	if p.ln != nil {
		err = p.ln.Close()
	}
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = client.Close()
			return
		}
		idx := p.accepted
		p.accepted++
		p.mu.Unlock()
		var script ConnScript
		if idx < len(p.scripts) {
			script = p.scripts[idx]
		}
		upstream, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = client.Close()
			continue
		}
		p.track(client)
		p.track(upstream)
		p.wg.Add(2)
		go p.forward(upstream, client, script.Up)
		go p.forward(client, upstream, script.Down)
	}
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// sever ends a proxied connection pair; reset aborts with RST instead of
// FIN. Linger is set on both conns before either closes so a concurrent
// plain Close from the opposite direction's goroutine still produces an
// RST.
func sever(a, b net.Conn, reset bool) {
	if reset {
		for _, c := range []net.Conn{a, b} {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
		}
	}
	_ = a.Close()
	_ = b.Close()
}

// forward copies src→dst applying one direction's fault script. It owns
// closing the pair when the stream or the script ends (except for
// blackholes, which leave the pair open and silent).
func (p *Proxy) forward(dst, src net.Conn, f Fault) {
	defer p.wg.Done()
	defer p.untrack(src)
	defer p.untrack(dst)

	var (
		buf       = make([]byte, 32<<10)
		sent      int     // bytes forwarded so far
		frame     int     // 1-based index of the frame being forwarded
		frameSent int     // payload+header bytes of the current frame already forwarded
		hdr       [4]byte // length prefix under assembly
		hdrGot    int
		bodyRem   int // body bytes left in the current frame
		silenced  bool
	)
	for {
		n, err := src.Read(buf)
		// A shard-wide blackhole latches before any forwarding decision, so
		// bytes read after BlackholeAll never leak through.
		if !silenced && p.silenceAll.Load() {
			silenced = true
		}
		if n > 0 && !silenced {
			chunk := buf[:n]
			for len(chunk) > 0 {
				// How many bytes may pass before the next trigger?
				allow := len(chunk)
				fire := false
				if f.Action != ActNone {
					switch {
					case f.AfterFrames > 0:
						if frame == 0 {
							frame = 1
						}
						// Never forward past the current frame's end in
						// one step, so every frame transition is seen.
						if hdrGot < 4 {
							allow = min(allow, 4-hdrGot)
						} else {
							allow = min(allow, bodyRem)
						}
						if frame == f.AfterFrames {
							cut := f.AfterBytes - frameSent
							if cut <= 0 {
								allow, fire = 0, true
							} else if cut <= allow {
								allow, fire = cut, true
							}
						}
					case f.AfterBytes > 0:
						cut := f.AfterBytes - sent
						if cut <= 0 {
							allow, fire = 0, true
						} else if cut <= allow {
							allow, fire = cut, true
						}
					default:
						// Action with no trigger fires immediately.
						allow, fire = 0, true
					}
				}
				if allow > 0 {
					if f.Latency > 0 {
						time.Sleep(f.Latency)
					}
					if _, werr := dst.Write(chunk[:allow]); werr != nil {
						sever(dst, src, false)
						return
					}
					sent += allow
					if frame > 0 {
						account(chunk[:allow], &frame, &frameSent, &hdr, &hdrGot, &bodyRem)
					}
					chunk = chunk[allow:]
				}
				if fire {
					switch f.Action {
					case ActClose:
						sever(dst, src, false)
						return
					case ActReset:
						sever(dst, src, true)
						return
					case ActBlackhole:
						silenced = true
						chunk = nil
					}
				}
			}
		}
		if err != nil {
			// Tear the pair down even when silenced: a blackholed
			// connection is silent only while its source lives. Leaving
			// the far side open once the peer gave up would strand the
			// opposite forwarder — and Proxy.Close behind it — on a read
			// nothing will ever finish (the deferred untracks have already
			// hidden both conns from Close).
			sever(dst, src, false)
			return
		}
	}
}

// account advances the frame-parsing state over one forwarded chunk.
func account(chunk []byte, frame, frameSent *int, hdr *[4]byte, hdrGot, bodyRem *int) {
	for len(chunk) > 0 {
		if *hdrGot < 4 {
			n := copy(hdr[*hdrGot:], chunk)
			*hdrGot += n
			*frameSent += n
			chunk = chunk[n:]
			if *hdrGot == 4 {
				*bodyRem = int(binary.BigEndian.Uint32(hdr[:]))
				if *bodyRem == 0 {
					*frame++
					*frameSent = 0
					*hdrGot = 0
				}
			}
			continue
		}
		n := min(len(chunk), *bodyRem)
		*bodyRem -= n
		*frameSent += n
		chunk = chunk[n:]
		if *bodyRem == 0 {
			*frame++
			*frameSent = 0
			*hdrGot = 0
		}
	}
}
