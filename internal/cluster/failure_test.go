package cluster

import (
	"bufio"
	"net"
	"testing"
	"time"

	"highrpm/internal/leaktest"
)

// Failure-injection tests: the service must survive misbehaving peers and
// shut down cleanly under load (the §6.4.6 robustness theme applied to the
// deployment layer).

func TestServiceSurvivesAbruptDisconnect(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	// Connect and slam the connection shut mid-handshake.
	conn, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0, 0, 0}); err != nil { // truncated frame
		t.Fatal(err)
	}
	conn.Close()

	// The service must still accept new agents.
	agent, err := Dial(svc.Addr(), "survivor")
	if err != nil {
		t.Fatalf("service dead after abrupt disconnect: %v", err)
	}
	defer agent.Close()
	pmc := make([]float64, 10)
	v := 80.0
	if _, err := agent.Send(0, pmc, &v); err != nil {
		t.Fatal(err)
	}
}

func TestServiceRejectsOversizedFrame(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	conn, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Claim a 512 MiB frame; the service must drop the connection rather
	// than allocate.
	if _, err := conn.Write([]byte{0x20, 0x00, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 16)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the connection to be closed")
	}
	// And keep serving others.
	agent, err := Dial(svc.Addr(), "after-bomb")
	if err != nil {
		t.Fatal(err)
	}
	agent.Close()
}

func TestServiceSurvivesGarbageJSON(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	conn, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := []byte("this is not json")
	frame := append([]byte{0, 0, 0, byte(len(payload))}, payload...)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// Connection drops; the service stays alive.
	agent, err := Dial(svc.Addr(), "after-garbage")
	if err != nil {
		t.Fatal(err)
	}
	agent.Close()
}

func TestServiceCloseUnblocksAgents(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	agent, err := Dial(svc.Addr(), "doomed")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	done := make(chan error, 1)
	go func() { done <- svc.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an idle agent connected")
	}
	// The agent's next send must fail, not hang.
	pmc := make([]float64, 10)
	errCh := make(chan error, 1)
	go func() {
		_, err := agent.Send(0, pmc, nil)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("send to closed service succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send to closed service hung")
	}
}

func TestReadMsgTruncatedBody(t *testing.T) {
	leaktest.Check(t)
	conn1, conn2 := net.Pipe()
	go func() {
		conn1.Write([]byte{0, 0, 0, 50, 'x'}) // claims 50 bytes, sends 1
		conn1.Close()
	}()
	if _, err := ReadMsgLimit(bufio.NewReader(conn2), DefaultMaxFrame); err == nil {
		t.Fatal("expected truncation error")
	}
}
