package cluster

import (
	"bufio"
	"net"
	"testing"
)

// benchPMC returns a plausible counter vector for the shared model's width.
func benchPMC() []float64 {
	pmc := make([]float64, 10)
	for i := range pmc {
		pmc[i] = 1e9 + float64(i)*1e7
	}
	return pmc
}

// BenchmarkAgentSendLoopback measures one full request/reply over loopback
// TCP: frame encode, service decode, monitor push, history ingest, estimate
// encode, agent decode. One measured sample seeds the monitor so the steady
// state exercises the DynamicTRR prediction path, not the cold start.
func BenchmarkAgentSendLoopback(b *testing.B) {
	svc := startService(b)
	agent, err := Dial(svc.Addr(), "bench-loopback")
	if err != nil {
		b.Fatal(err)
	}
	defer agent.Close()
	pmc := benchPMC()
	seed := 90.0
	if _, err := agent.Send(0, pmc, &seed); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agent.Send(float64(i+1), pmc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceHandle measures the service handler alone over an
// in-process net.Pipe — no TCP stack, so the number isolates decode +
// monitor + store + encode.
func BenchmarkServiceHandle(b *testing.B) {
	svc := NewServiceWith(sharedModel(b), ServiceOptions{})
	svc.Logf = func(string, ...any) {}
	defer svc.Close()

	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.srv.serveConn(server)
	}()
	r := bufio.NewReader(client)
	w := bufio.NewWriter(client)
	send := func(kind MsgKind, body any) Envelope {
		b.Helper()
		if err := WriteMsg(w, kind, body); err != nil {
			b.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		env, err := ReadMsg(r)
		if err != nil {
			b.Fatal(err)
		}
		return env
	}
	send(KindHello, Hello{NodeID: "bench-pipe"})
	pmc := benchPMC()
	seed := 90.0
	send(KindSample, Sample{NodeID: "bench-pipe", Time: 0, PMC: pmc, Measured: &seed})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := send(KindSample, Sample{NodeID: "bench-pipe", Time: float64(i + 1), PMC: pmc})
		if env.Kind != KindEstimate {
			b.Fatalf("reply kind %q", env.Kind)
		}
	}
	b.StopTimer()
	client.Close()
	<-done
}
