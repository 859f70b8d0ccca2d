package cluster

import (
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"highrpm/internal/leaktest"
)

func sameWireEstimate(a, b Estimate) bool {
	return a.NodeID == b.NodeID && math.Float64bits(a.Time) == math.Float64bits(b.Time) &&
		math.Float64bits(a.PNode) == math.Float64bits(b.PNode) &&
		math.Float64bits(a.PCPU) == math.Float64bits(b.PCPU) &&
		math.Float64bits(a.PMEM) == math.Float64bits(b.PMEM) &&
		a.FromMeasurement == b.FromMeasurement && a.Local == b.Local
}

// TestColdReplicaFedRelayedSamples: a service that joins a node's stream
// mid-flight — a restarted follower, its monitors cold — and is fed the
// primary's estimates with the samples stores p_node, p_cpu, p_mem and
// ipmi byte-identical to the primary's from its very first sample, because
// it never runs its own cold network; fed the same samples plain it
// diverges until its window has refilled. Meanwhile the relayed samples
// have kept its monitor in step, so once window and trend have caught up
// it answers plain samples bit-identically: it can take over.
func TestColdReplicaFedRelayedSamples(t *testing.T) {
	leaktest.Check(t)
	const node, joinAt, relayUntil, total = "node-r", 25, 60, 80
	samples := simSamples(t, total, 10, 9)
	primary, follower, plain := startService(t), startService(t), startService(t)
	dial := func(svc *Service) *Agent {
		t.Helper()
		ag, err := Dial(svc.Addr(), node)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ag.Close() })
		return ag
	}
	pa, fa, la := dial(primary), dial(follower), dial(plain)
	var relayedMeasured int64
	for i, smp := range samples {
		est, err := pa.Send(smp.Time, smp.PMC, smp.Measured)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i < joinAt:
		case i < relayUntil:
			rel := est.Relayed()
			got, err := fa.send(smp.Time, smp.PMC, smp.Measured, &rel)
			if err != nil || !sameWireEstimate(got, est) {
				t.Fatalf("sample %d: relayed answer %+v (err %v), primary's %+v", i, got, err, est)
			}
			if smp.Measured != nil {
				relayedMeasured++
			}
			if _, err := la.Send(smp.Time, smp.PMC, smp.Measured); err != nil {
				t.Fatal(err)
			}
		default:
			// Takeover: the follower now infers for itself.
			got, err := fa.Send(smp.Time, smp.PMC, smp.Measured)
			if err != nil || !sameWireEstimate(got, est) {
				t.Fatalf("sample %d after takeover: follower %+v (err %v), primary %+v", i, got, err, est)
			}
		}
	}

	series := func(ag *Agent, ch string, from, to int) string {
		t.Helper()
		body, err := ag.Query(QueryRequest{NodeID: node, Channel: ch, From: float64(from), To: float64(to), ResolutionS: 1})
		if err != nil {
			t.Fatalf("query %s: %v", ch, err)
		}
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, ch := range []string{"p_node", "p_cpu", "p_mem", "ipmi"} {
		if got, want := series(fa, ch, joinAt, total-1), series(pa, ch, joinAt, total-1); got != want {
			t.Fatalf("%s on the relayed-fed follower diverges from the primary:\ngot  %s\nwant %s", ch, got, want)
		}
	}
	// The trend channel is the follower's own: it matches once the follower
	// has seen two IM readings for itself (seconds 30 and 40).
	if got, want := series(fa, "p_node_prime", 40, total-1), series(pa, "p_node_prime", 40, total-1); got != want {
		t.Fatalf("p_node_prime from the follower's own Observe diverges after two readings:\ngot  %s\nwant %s", got, want)
	}
	if series(la, "p_node", joinAt, relayUntil-1) == series(pa, "p_node", joinAt, relayUntil-1) {
		t.Fatal("a cold service fed plain samples matched the primary at once; the test no longer shows what the relay buys")
	}

	st := follower.Stats()
	if want := int64(relayUntil - joinAt); st.Relayed != want || st.Samples != total-joinAt || st.Estimates != total-joinAt {
		t.Fatalf("follower accounting: %d relayed of %d samples, %d estimates; want %d of %d", st.Relayed, st.Samples, st.Estimates, want, total-joinAt)
	}
	if st.Measured != relayedMeasured+2 { // seconds 60 and 70 arrived plain
		t.Fatalf("follower counted %d measured samples, want %d", st.Measured, relayedMeasured+2)
	}
	if primary.Stats().Relayed != 0 {
		t.Fatalf("primary counted %d relayed samples", primary.Stats().Relayed)
	}
	fl, pl := follower.LatestEstimates()[node], primary.LatestEstimates()[node]
	if math.Float64bits(fl.PNode) != math.Float64bits(pl.PNode) || math.Float64bits(fl.PNodePrime) != math.Float64bits(pl.PNodePrime) || fl.Time != pl.Time {
		t.Fatalf("latest-estimate gauge feed: follower %+v, primary %+v", fl, pl)
	}
}

// Frames the encoders produced for a plain sample and batch before the
// relayed presence bit existed (payloads, without the length prefix).
const (
	parentBinSample  = "0200026e31400800000000000000023ff00000000000004000000000000000014056a00000000000"
	parentBinBatch   = "0700026e3100000002400800000000000000023ff00000000000004000000000000000014056a00000000000401000000000000000024008000000000000401000000000000000"
	parentJSONSample = `{"kind":"sample","body":{"node_id":"n1","time":3,"pmc":[1,2],"measured":90.5}}`
	parentJSONBatch  = `{"kind":"record_batch","body":{"node_id":"n1","samples":[{"time":3,"pmc":[1,2],"measured":90.5},{"time":4,"pmc":[3,4]}]}}`
)

// TestRelayedSampleDecodeStrict pins what the checked-in corpus files for
// the relayed presence bit are expected to do: the two valid layouts decode
// (through the serve loop too, which answers with the relayed estimate),
// and a payload cut off after the presence byte, a presence bit nobody
// defined, or an estimate flag a relayed estimate cannot carry is a
// protocol error — never a guess. A sample or batch without a relayed
// estimate is framed byte for byte as before the bit existed, in both
// codecs, and one with it is longer by the estimate.
func TestRelayedSampleDecodeStrict(t *testing.T) {
	parentMeas := 90.5
	parentRel := &RelayedEstimate{PNode: 90.5, PCPU: 40, PMEM: 12, FromMeasurement: true}
	for _, rel := range []*RelayedEstimate{nil, parentRel} {
		batch := []BatchSample{{Time: 3, PMC: []float64{1, 2}, Measured: &parentMeas, Relayed: rel}, {Time: 4, PMC: []float64{3, 4}}}
		bin := [2][]byte{
			encodeBinFrame(t, func(g *binFramer) error { return g.writeSample("n1", 3, []float64{1, 2}, &parentMeas, rel) })[4:],
			encodeBinFrame(t, func(g *binFramer) error { return g.writeRecordBatch("n1", batch) })[4:],
		}
		js := [2]string{
			string(jsonFrame(t, KindSample, Sample{NodeID: "n1", Time: 3, PMC: []float64{1, 2}, Measured: &parentMeas, Relayed: rel})[4:]),
			string(jsonFrame(t, KindRecordBatch, RecordBatch{NodeID: "n1", Samples: batch})[4:]),
		}
		for i, parent := range [2]string{parentBinSample, parentBinBatch} {
			got := hex.EncodeToString(bin[i])
			if (rel == nil) != (got == parent) || len(got) < len(parent) {
				t.Fatalf("binary frame %d with relayed %v:\ngot    %s\nparent %s", i, rel, got, parent)
			}
		}
		for i, parent := range [2]string{parentJSONSample, parentJSONBatch} {
			if (rel == nil) != (js[i] == parent) || (rel != nil) != strings.Contains(js[i], `"relayed":`) {
				t.Fatalf("JSON frame %d with relayed %v:\ngot    %s\nparent %s", i, rel, js[i], parent)
			}
		}
	}

	pmc := []float64{0.5, 1e9, 3}
	meas := 88.25
	rel := &RelayedEstimate{PNode: 88.25, PCPU: 41.5, PMEM: 12.75, FromMeasurement: true}
	relayed := encodeBinFrame(t, func(g *binFramer) error { return g.writeSample("corpus", 1, pmc, nil, rel) })
	both := encodeBinFrame(t, func(g *binFramer) error { return g.writeSample("corpus", 2, pmc, &meas, rel) })
	presence := 4 + 1 + 2 + len("corpus") + 8 + 2 + 8*len(pmc) // offset of the presence byte in a frame
	if relayed[presence] != sampleHasRelayed || both[presence] != sampleHasMeasured|sampleHasRelayed {
		t.Fatalf("presence bytes %#x / %#x", relayed[presence], both[presence])
	}
	f := newBinFramer(nil, nil, DefaultMaxFrame)
	for _, frame := range [][]byte{relayed, both} {
		smp, err := f.readSample(frame[5:])
		if err != nil || smp.Relayed == nil || *smp.Relayed != *rel {
			t.Fatalf("valid relayed sample: %+v, err %v", smp, err)
		}
		if (smp.Measured != nil) != (frame[presence]&sampleHasMeasured != 0) {
			t.Fatalf("measured presence lost: %+v", smp)
		}
	}
	corrupt := func(mutate func(frame []byte) []byte) []byte {
		return mutate(append([]byte(nil), relayed...))[5:]
	}
	for name, payload := range map[string][]byte{
		"truncated after the presence byte": corrupt(func(b []byte) []byte { return b[:presence+1] }),
		"undefined presence bit":            corrupt(func(b []byte) []byte { b[presence] |= 0x04; return b }),
		"undefined estimate flag":           corrupt(func(b []byte) []byte { b[len(b)-1] |= estFlagLocal; return b }),
		"trailing byte":                     corrupt(func(b []byte) []byte { return append(b, 0) }),
	} {
		if smp, err := f.readSample(payload); err == nil {
			t.Errorf("%s decoded to %+v", name, smp)
		}
	}

	replies, st := serveScript(t, scriptStream(t, []string{CodecBinary}, relayed, both), fuzzMaxFrame)
	if len(replies) != 3 || st.BinFrames != 2 {
		t.Fatalf("%d replies, accounting %+v", len(replies), st)
	}
	for _, rep := range replies[1:] {
		est, err := f.readEstimate(rep[1:])
		if rep[0] != binKindEstimate || err != nil || est.PCPU != rel.PCPU {
			t.Fatalf("relayed sample answered kind %d %+v (err %v), want the relayed estimate back", rep[0], est, err)
		}
	}
}
