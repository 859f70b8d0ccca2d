package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"highrpm/internal/leaktest"
)

// groupNodes names n nodes for a pipelined group.
func groupNodes(n int, pad string) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node-%03d%s", i, pad)
	}
	return nodes
}

// isTimeout reports whether err is a deadline expiring.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// withholdingPeer plays a service that answers nothing until it has read the
// whole group: n query frames, then n replies in order — node i's series has
// i points, except node reject, which is refused. Only a client that keeps
// the group in flight ever sees a reply.
func withholdingPeer(t *testing.T, conn net.Conn, n, reject int) {
	f := newBinFramer(bufio.NewReader(conn), bufio.NewWriter(conn), DefaultMaxFrame)
	reqs := make([]QueryRequest, 0, n)
	for len(reqs) < n {
		kind, payload, err := f.readFrame()
		if err != nil {
			return // the client gave up: what the unpipelined half expects
		}
		if kind != binKindQuery {
			t.Errorf("peer: request kind %d, want a query", kind)
			return
		}
		q, err := f.readQuery(payload)
		if err != nil {
			t.Errorf("peer: %v", err)
			return
		}
		reqs = append(reqs, q)
	}
	for i, q := range reqs {
		var err error
		if i == reject {
			err = f.writeError("no history for " + q.NodeID)
		} else {
			err = f.replySeries(SeriesBody{NodeID: q.NodeID, Channel: q.Channel, ResolutionS: 1, Points: make([]SeriesPoint, i)})
		}
		if err == nil {
			err = f.w.Flush()
		}
		if err != nil {
			return // the client left mid-group; its own checks say whether it should have
		}
	}
}

// TestQueryNodesPipelines: against a peer that withholds every reply until it
// holds the whole group's requests, one Query at a time times out on the
// first node, and QueryNodes completes — reply i delivered for node i, in
// order, a rejection in the middle of the group delivered as that node's and
// disturbing no other.
func TestQueryNodesPipelines(t *testing.T) {
	leaktest.Check(t)
	const n, reject = 21, 7
	nodes := groupNodes(n, "")
	q := QueryRequest{Channel: "p_node", From: 0, To: 10, ResolutionS: 1}
	run := func(t *testing.T, client func(a *Agent)) {
		c, s := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			withholdingPeer(t, s, n, reject)
		}()
		client(scriptAgent(c, true))
		c.Close()
		s.Close()
		<-done
	}

	t.Run("unpipelined", func(t *testing.T) {
		run(t, func(a *Agent) {
			a.SetDeadline(time.Now().Add(200 * time.Millisecond))
			q.NodeID = nodes[0]
			if _, err := a.Query(q); !isTimeout(err) {
				t.Fatalf("one query at a time got %v from a peer that waits for the group, want a timeout", err)
			}
		})
	})
	t.Run("pipelined", func(t *testing.T) {
		run(t, func(a *Agent) {
			next := 0
			done, err := a.QueryNodes(q, nodes, 5*time.Second, func(i int, rep *SeriesReply, rejected *ServiceError) error {
				if i != next {
					t.Errorf("outcome %d delivered at position %d", i, next)
				}
				next++
				if i == reject {
					if rejected == nil || rep != nil || !strings.Contains(rejected.Message, nodes[i]) {
						t.Errorf("node %d: reply %v, rejection %v, want its own rejection", i, rep, rejected)
					}
					return nil
				}
				if rejected != nil {
					t.Errorf("node %d rejected: %v", i, rejected)
					return nil
				}
				body, err := rep.Body()
				if err != nil {
					return err
				}
				if body.NodeID != nodes[i] || len(body.Points) != i {
					t.Errorf("reply %d is node %q with %d points, want %q with %d", i, body.NodeID, len(body.Points), nodes[i], i)
				}
				return nil
			})
			if err != nil || done != n || next != n {
				t.Fatalf("pipelined group: done %d, delivered %d, err %v, want all %d", done, next, err, n)
			}
		})
	})
	t.Run("consumer-refuses", func(t *testing.T) {
		// A reply its consumer cannot use ends the group there: done names the
		// node, and the error is the consumer's.
		run(t, func(a *Agent) {
			refused := errors.New("malformed")
			done, err := a.QueryNodes(q, nodes, 5*time.Second, func(i int, _ *SeriesReply, _ *ServiceError) error {
				if i == 3 {
					return refused
				}
				return nil
			})
			if done != 3 || !errors.Is(err, refused) {
				t.Fatalf("done %d, err %v, want the group to end at node 3 with the consumer's error", done, err)
			}
		})
	})
}

// TestQueryFrameLen: the window is accounted in request bytes computed ahead
// of the encoder; the two must agree on every frame.
func TestQueryFrameLen(t *testing.T) {
	for _, q := range []QueryRequest{
		{},
		{NodeID: "cn0001", Channel: "p_node", From: 0, To: 3267, ResolutionS: 60},
		{NodeID: strings.Repeat("n", 5000), Channel: "ipmi", From: -1, To: math.Inf(1), ResolutionS: 1},
	} {
		frame := encodeBinFrame(t, func(g *binFramer) error { return g.writeQuery(q) })
		if got := queryFrameLen(&q); got != len(frame) {
			t.Fatalf("queryFrameLen = %d for a %d-byte frame (%d-byte node)", got, len(frame), len(q.NodeID))
		}
	}
}

// TestQueryNodesWindow: a group far larger than any buffer completes against
// a peer that never reads ahead of its replies. The peer is the real serve
// loop over an unbuffered pipe — one request decoded, one reply written and
// blocked on until the client takes it, and only its 4 KiB reader between
// the two — so requests written without bound deadlock against the reply
// nobody is reading yet, which the first half shows, and the window is what
// lets QueryNodes through. A JSON agent's group is refused before a frame is
// written: the serve loop sees none.
func TestQueryNodesWindow(t *testing.T) {
	leaktest.Check(t)
	const n = 300
	nodes := groupNodes(n, strings.Repeat("-pad", 10)) // ≈ 75-byte frames: 22 KB of requests
	q := QueryRequest{Channel: "p_node", From: 0, To: 3, ResolutionS: 1}
	serve := func(t *testing.T, binary bool, client func(a *Agent)) ConnStats {
		srv := NewServer("test", stubHandler{}, ServiceOptions{}, t.Logf)
		c, s := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- srv.serveConn(s) }()
		a := scriptAgent(c, binary)
		if binary {
			a.f = handshakeBinary(t, c, "window")
		}
		client(a)
		c.Close()
		if err := <-done; err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("serve loop exit: %v", err)
		}
		return srv.Stats()
	}

	t.Run("unbounded-deadlocks", func(t *testing.T) {
		serve(t, true, func(a *Agent) {
			a.SetDeadline(time.Now().Add(300 * time.Millisecond))
			var err error
			for _, node := range nodes {
				q.NodeID = node
				if err = a.f.writeQuery(q); err != nil {
					break
				}
			}
			if err == nil {
				err = a.f.w.Flush()
			}
			if !isTimeout(err) {
				t.Fatalf("writing %d requests before reading a reply got %v, want the deadlock's timeout", n, err)
			}
		})
	})
	t.Run("windowed/binary", func(t *testing.T) {
		serve(t, true, func(a *Agent) {
			next := 0
			done, err := a.QueryNodes(q, nodes, 5*time.Second, func(i int, rep *SeriesReply, rejected *ServiceError) error {
				if rejected != nil {
					return rejected
				}
				body, err := rep.Body()
				if err == nil && (i != next || body.NodeID != nodes[i] || len(body.Points) != 3) {
					t.Errorf("reply %d at position %d is node %q with %d points", i, next, body.NodeID, len(body.Points))
				}
				next++
				return err
			})
			if err != nil || done != n {
				t.Fatalf("windowed group: done %d of %d, err %v", done, n, err)
			}
		})
	})
	t.Run("windowed/json", func(t *testing.T) {
		st := serve(t, false, func(a *Agent) {
			done, err := a.QueryNodes(q, nodes, 5*time.Second, func(int, *SeriesReply, *ServiceError) error {
				t.Error("a refused group reached its callback")
				return nil
			})
			if err == nil || done != 0 {
				t.Fatalf("JSON group: done %d, err %v, want a refusal before the first node", done, err)
			}
		})
		if st.JSONFrames+st.BinFrames != 0 {
			t.Fatalf("the serve loop read %d frames from a refused group", st.JSONFrames+st.BinFrames)
		}
	})
}
