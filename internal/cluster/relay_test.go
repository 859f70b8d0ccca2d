package cluster

import (
	"encoding/hex"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"highrpm/internal/leaktest"
)

// sendRelayed sends one sample with rel attached, as a batch of one — the
// way a fleet router forwards a replicated sample to a follower.
func sendRelayed(a *Agent, t float64, pmc []float64, measured *float64, rel *RelayedEstimate) (Estimate, error) {
	ests, err := a.sendBatch([]BatchSample{{Time: t, PMC: pmc, Measured: measured, Relayed: rel}}, nil)
	if err != nil {
		return Estimate{}, err
	}
	return ests[0], nil
}

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
			got, err := sendRelayed(fa, smp.Time, smp.PMC, smp.Measured, &rel)
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

// Frames the encoders produced before the relayed presence bit existed
// (payloads, without the length prefix). The JSON batch is what a JSON
// agent sent while JSON still carried batches. The binary sample and
// estimate are the retired kinds 2 and 3, which a server now answers as
// unknown (TestServeConnScripted).
const (
	parentBinSample   = "0200026e31400800000000000000023ff00000000000004000000000000000014056a00000000000"
	parentBinEstimate = "0300026e31400800000000000000" + "4056a00000000000" + "4044000000000000" + "4028000000000000" + "01"
	parentBinBatch    = "0700026e3100000002400800000000000000023ff00000000000004000000000000000014056a00000000000401000000000000000024008000000000000401000000000000000"
	parentJSONSample  = `{"kind":"sample","body":{"node_id":"n1","time":3,"pmc":[1,2],"measured":90.5}}`
	parentJSONBatch   = `{"kind":"record_batch","body":{"node_id":"n1","samples":[{"time":3,"pmc":[1,2],"measured":90.5},{"time":4,"pmc":[3,4]}]}}`
)

// TestRelayedSampleDecodeStrict pins what the checked-in corpus files for
// the relayed presence bit are expected to do, on the record batch that
// carries every binary sample: the two valid layouts decode (through the
// serve loop too, which answers with the relayed estimate), and a payload
// cut off after the presence byte, a presence bit nobody defined, or an
// estimate flag a relayed estimate cannot carry is a protocol error —
// never a guess. A batch without a relayed estimate is framed byte for
// byte as before the bit existed, as is a JSON sample, and one with it is
// longer by the estimate.
func TestRelayedSampleDecodeStrict(t *testing.T) {
	parentMeas := 90.5
	parentRel := &RelayedEstimate{PNode: 90.5, PCPU: 40, PMEM: 12, FromMeasurement: true}
	for _, rel := range []*RelayedEstimate{nil, parentRel} {
		batch := []BatchSample{{Time: 3, PMC: []float64{1, 2}, Measured: &parentMeas, Relayed: rel}, {Time: 4, PMC: []float64{3, 4}}}
		got := hex.EncodeToString(encodeBinFrame(t, func(g *binFramer) error { return g.writeRecordBatch("n1", batch) })[4:])
		if (rel == nil) != (got == parentBinBatch) || len(got) < len(parentBinBatch) {
			t.Fatalf("binary batch with relayed %v:\ngot    %s\nparent %s", rel, got, parentBinBatch)
		}
		js := string(jsonFrame(t, KindSample, Sample{NodeID: "n1", Time: 3, PMC: []float64{1, 2}, Measured: &parentMeas, Relayed: rel})[4:])
		if (rel == nil) != (js == parentJSONSample) || (rel != nil) != strings.Contains(js, `"relayed":`) {
			t.Fatalf("JSON sample with relayed %v:\ngot    %s\nparent %s", rel, js, parentJSONSample)
		}
	}

	pmc := []float64{0.5, 1e9, 3}
	meas := 88.25
	rel := &RelayedEstimate{PNode: 88.25, PCPU: 41.5, PMEM: 12.75, FromMeasurement: true}
	relayed := oneSample(t, "corpus", 1, pmc, nil, rel)
	both := oneSample(t, "corpus", 2, pmc, &meas, rel)
	presence := 4 + 1 + 2 + len("corpus") + 4 + 8 + 2 + 8*len(pmc) // offset of the presence byte in a frame
	if relayed[presence] != sampleHasRelayed || both[presence] != sampleHasMeasured|sampleHasRelayed {
		t.Fatalf("presence bytes %#x / %#x", relayed[presence], both[presence])
	}
	f := newBinFramer(nil, nil, DefaultMaxFrame)
	for _, frame := range [][]byte{relayed, both} {
		rb, err := f.readRecordBatch(frame[5:])
		if err != nil || len(rb.Samples) != 1 || rb.Samples[0].Relayed == nil || *rb.Samples[0].Relayed != *rel {
			t.Fatalf("valid relayed sample: %+v, err %v", rb, err)
		}
		if (rb.Samples[0].Measured != nil) != (frame[presence]&sampleHasMeasured != 0) {
			t.Fatalf("measured presence lost: %+v", rb.Samples[0])
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
		if rb, err := f.readRecordBatch(payload); err == nil {
			t.Errorf("%s decoded to %+v", name, rb)
		}
	}

	replies, st := serveScript(t, stubHandler{tb: t, maxFrame: fuzzMaxFrame}, scriptStream(t, []string{CodecBinary}, relayed, both), fuzzMaxFrame)
	if len(replies) != 3 || st.BinFrames != 2 {
		t.Fatalf("%d replies, accounting %+v", len(replies), st)
	}
	for _, rep := range replies[1:] {
		ests, err := f.readEstimateBatch(rep[1:], nil)
		if rep[0] != binKindEstimateBatch || err != nil || len(ests) != 1 || ests[0].PCPU != rel.PCPU {
			t.Fatalf("relayed sample answered kind %d %+v (err %v), want the relayed estimate back", rep[0], ests, err)
		}
	}
}
