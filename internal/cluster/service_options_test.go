package cluster

import (
	"net"
	"testing"
	"time"

	"highrpm/internal/leaktest"
	"highrpm/internal/tsdb"
)

// TestServiceReadTimeoutReapsIdle: a peer that connects and goes silent is
// reaped by the per-connection read deadline and counted in Stats.
func TestServiceReadTimeoutReapsIdle(t *testing.T) {
	leaktest.Check(t)
	svc := startServiceWith(t, ServiceOptions{ReadTimeout: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The service must hang up on us.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("silent connection not reaped")
	}
	waitFor(t, func() bool { return svc.Stats().TimedOut == 1 && svc.Stats().Conns == 0 })
}

// TestServiceMaxConns: connections beyond the cap are dropped at accept
// and counted; a freed slot is reusable.
func TestServiceMaxConns(t *testing.T) {
	leaktest.Check(t)
	svc := startServiceWith(t, ServiceOptions{MaxConns: 1})
	first, err := Dial(svc.Addr(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := Dial(svc.Addr(), "excess"); err == nil {
		t.Fatal("second connection admitted past MaxConns=1")
	}
	waitFor(t, func() bool { return svc.Stats().Rejected == 1 })
	if st := svc.Stats(); st.Conns != 1 || st.PeakConns != 1 {
		t.Fatalf("conn accounting = %+v", st)
	}
	// Release the slot; the next agent must get in.
	first.Close()
	waitFor(t, func() bool { return svc.Stats().Conns == 0 })
	second, err := Dial(svc.Addr(), "retry")
	if err != nil {
		t.Fatalf("slot not released: %v", err)
	}
	second.Close()
}

// TestServiceStatsNodeConns: Stats maps node IDs to their live connection
// counts once agents have said Hello.
func TestServiceStatsNodeConns(t *testing.T) {
	leaktest.Check(t)
	svc := startService(t)
	a, err := Dial(svc.Addr(), "nc-a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b1, err := Dial(svc.Addr(), "nc-b")
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	b2, err := Dial(svc.Addr(), "nc-b")
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	st := svc.Stats()
	if st.Conns != 3 || st.PeakConns != 3 {
		t.Fatalf("conns = %+v", st)
	}
	if st.NodeConns["nc-a"] != 1 || st.NodeConns["nc-b"] != 2 {
		t.Fatalf("node conns = %+v", st.NodeConns)
	}
}

// TestServiceShutdownDrains: Shutdown answers the in-flight request, then
// lets the handler go; the drained sample is flushed into the store.
func TestServiceShutdownDrains(t *testing.T) {
	leaktest.Check(t)
	svc := NewService(sharedModel(t))
	svc.Logf = t.Logf
	if err := svc.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	agent, err := Dial(svc.Addr(), "drainee")
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	streamSamples(t, agent, 5, 10, 13)

	done := make(chan error, 1)
	go func() { done <- svc.Shutdown(5 * time.Second) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung with an idle agent connected")
	}
	// The drained samples are sealed into the now read-only store.
	pts, err := svc.Store().Query("drainee", tsdb.ChanPNode, 0, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("store kept %d points, want 5", len(pts))
	}
	// Idempotent with Close.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
