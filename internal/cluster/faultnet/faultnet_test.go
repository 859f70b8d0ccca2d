package faultnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"highrpm/internal/leaktest"
)

// startEcho runs a TCP echo server and returns its address.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); <-done })
	return ln.Addr().String()
}

func startProxy(t *testing.T, target string, scripts ...ConnScript) *Proxy {
	t.Helper()
	p := New(target, scripts...)
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// frame builds one length-prefixed message of n payload bytes.
func frame(n int) []byte {
	out := make([]byte, 4+n)
	binary.BigEndian.PutUint32(out, uint32(n))
	for i := range out[4:] {
		out[4+i] = byte('a' + i%26)
	}
	return out
}

func TestProxyPassthrough(t *testing.T) {
	leaktest.Check(t)
	p := startProxy(t, startEcho(t))
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := frame(100)
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo corrupted through passthrough proxy")
	}
	if p.Accepted() != 1 {
		t.Fatalf("accepted = %d", p.Accepted())
	}
}

// startSink runs a TCP server that records everything it receives; the
// returned function reports the total bytes received once the (single)
// connection has ended.
func startSink(t *testing.T) (addr string, received func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	total := make(chan int, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			total <- -1
			return
		}
		n, _ := io.Copy(io.Discard, c)
		c.Close()
		total <- int(n)
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String(), func() int {
		select {
		case n := <-total:
			return n
		case <-time.After(5 * time.Second):
			t.Fatal("sink never saw its connection end")
			return -1
		}
	}
}

func TestProxyDropAtFrame(t *testing.T) {
	leaktest.Check(t)
	addr, received := startSink(t)
	p := startProxy(t, addr, ConnScript{Up: Fault{AfterFrames: 3, Action: ActClose}})
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Frames 1 and 2 pass; frame 3 must never arrive.
	for i := 0; i < 3; i++ {
		if _, err := conn.Write(frame(50)); err != nil {
			break // the proxy may have severed already
		}
	}
	if n := received(); n != 2*54 {
		t.Fatalf("sink received %d bytes, want 2 whole frames (108)", n)
	}
}

func TestProxyTruncatesMidFrame(t *testing.T) {
	leaktest.Check(t)
	// Cut after 10 bytes of frame 2: the receiver sees frame 1 whole and
	// a truncated frame 2.
	addr, received := startSink(t)
	p := startProxy(t, addr, ConnScript{Up: Fault{AfterFrames: 2, AfterBytes: 10, Action: ActClose}})
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(frame(20))
	conn.Write(frame(20))
	if n := received(); n != 24+10 {
		t.Fatalf("sink received %d bytes, want 24 whole + 10 truncated", n)
	}
}

func TestProxyReset(t *testing.T) {
	leaktest.Check(t)
	p := startProxy(t, startEcho(t), ConnScript{Up: Fault{AfterBytes: 8, Action: ActReset}})
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(frame(100))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadAll(conn); err == nil {
		// A clean FIN yields err == nil from ReadAll; an RST errors.
		t.Fatal("expected a connection reset, got clean EOF")
	}
}

func TestProxyBlackhole(t *testing.T) {
	leaktest.Check(t)
	p := startProxy(t, startEcho(t), ConnScript{Up: Fault{Action: ActBlackhole}})
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame(50)); err != nil {
		t.Fatal(err)
	}
	// The connection stays open but nothing ever comes back.
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("blackholed proxy forwarded data")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("want a read timeout (open but silent), got %v", err)
	}
}

func TestProxyLatency(t *testing.T) {
	leaktest.Check(t)
	delay := 150 * time.Millisecond
	p := startProxy(t, startEcho(t), ConnScript{Up: Fault{Latency: delay}})
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	msg := frame(10)
	conn.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("round trip took %v, want >= %v", took, delay)
	}
}

func TestProxySecondConnectionClean(t *testing.T) {
	leaktest.Check(t)
	// Only connection 0 is scripted; connection 1 must pass untouched.
	p := startProxy(t, startEcho(t), ConnScript{Up: Fault{Action: ActClose}})
	c0, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c0.Write(frame(5))
	c0.Close()
	c1, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	msg := frame(30)
	c1.Write(msg)
	got := make([]byte, len(msg))
	c1.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c1, got); err != nil {
		t.Fatalf("second connection faulted: %v", err)
	}
}
