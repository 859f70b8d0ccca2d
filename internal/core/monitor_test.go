package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func trainedModel(t testing.TB) *HighRPM {
	t.Helper()
	train := trainSet(t, 150)
	opts := DefaultOptions()
	opts.Dynamic.Epochs = 6
	opts.Dynamic.MaxWindows = 200
	opts.ActiveLearning = false
	h, err := Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestMonitorStreaming(t *testing.T) {
	h := trainedModel(t)
	mon := NewMonitor(h)
	test := testSet(t, 80)

	var absErr float64
	for i, sm := range test.Samples {
		var measured *float64
		if i%10 == 0 {
			v := sm.PNode
			measured = &v
		}
		est, err := mon.Push(sm.PMC, measured)
		if err != nil {
			t.Fatal(err)
		}
		if measured != nil {
			if !est.FromMeasurement || est.PNode != *measured {
				t.Fatalf("step %d: measurement not passed through", i)
			}
		} else if est.FromMeasurement {
			t.Fatalf("step %d: claims measurement without one", i)
		}
		if est.PCPU <= 0 || est.PMEM <= 0 || math.IsNaN(est.PNode) {
			t.Fatalf("step %d: implausible estimate %+v", i, est)
		}
		absErr += math.Abs(est.PNode - sm.PNode)
	}
	if mon.Samples() != int64(test.Len()) {
		t.Fatalf("Samples = %d want %d", mon.Samples(), test.Len())
	}
	mean := absErr / float64(test.Len())
	if mean > 15 {
		t.Fatalf("streaming mean abs error %.1f W too high", mean)
	}
}

func TestMonitorRejectsBadFeatureWidth(t *testing.T) {
	h := trainedModel(t)
	mon := NewMonitor(h)
	if _, err := mon.Push([]float64{1, 2}, nil); err == nil {
		t.Fatal("expected feature-width error")
	}
}

func TestMonitorFirstSampleWithoutMeasurement(t *testing.T) {
	h := trainedModel(t)
	mon := NewMonitor(h)
	test := testSet(t, 5)
	est, err := mon.Push(test.Samples[0].PMC, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Neutral estimate: midpoint of the training power band.
	want := 0.5 * (h.Static.PBottom + h.Static.PUpper)
	if est.PNode != want {
		t.Fatalf("cold-start estimate %g want %g", est.PNode, want)
	}
}

// sameMonitorEstimate compares two estimates bit for bit (NaN-safe).
func sameMonitorEstimate(a, b MonitorEstimate) bool {
	return math.Float64bits(a.PNode) == math.Float64bits(b.PNode) &&
		math.Float64bits(a.PCPU) == math.Float64bits(b.PCPU) &&
		math.Float64bits(a.PMEM) == math.Float64bits(b.PMEM) &&
		math.Float64bits(a.PNodePrime) == math.Float64bits(b.PNodePrime) &&
		a.FromMeasurement == b.FromMeasurement
}

// Property: a monitor's state is a function of the (pmc, measured) stream
// alone. Driven by an arbitrary interleaving of Observe and Push, it
// returns at every Push an estimate bit-identical to a monitor that was
// Pushed throughout, and every Observe returns that reference's
// PNodePrime — which is what lets a replica skip inference and still take
// over at any second.
func TestMonitorObservePushInterleavingProperty(t *testing.T) {
	h := trainedModel(t)
	test := testSet(t, 120)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref, mon := NewMonitor(h), NewMonitor(h)
		// IM readings at irregular gaps, starting late or at once, so cold
		// start, the padded window and the steady state are all crossed in
		// both modes.
		nextIM := rng.Intn(15)
		observeRun := 0 // seconds left in the current Observe-only stretch
		for i, sm := range test.Samples {
			var measured *float64
			if i == nextIM {
				v := sm.PNode + rng.NormFloat64()
				measured = &v
				nextIM += 1 + rng.Intn(14)
			}
			want, err := ref.Push(sm.PMC, measured)
			if err != nil {
				return false
			}
			if observeRun == 0 && rng.Intn(3) == 0 {
				observeRun = 1 + rng.Intn(25)
			}
			if observeRun > 0 {
				observeRun--
				prime, err := mon.Observe(sm.PMC, measured)
				if err != nil || math.Float64bits(prime) != math.Float64bits(want.PNodePrime) {
					t.Logf("seed %d step %d: Observe returned %v (err %v), Push's PNodePrime %v", seed, i, prime, err, want.PNodePrime)
					return false
				}
				continue
			}
			got, err := mon.Push(sm.PMC, measured)
			if err != nil || !sameMonitorEstimate(got, want) {
				t.Logf("seed %d step %d: interleaved %+v (err %v), pushed throughout %+v", seed, i, got, err, want)
				return false
			}
		}
		return mon.Samples() == ref.Samples()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
	// A rejected sample advances nothing, in either mode.
	mon := NewMonitor(h)
	if _, err := mon.Observe([]float64{1, 2}, nil); err == nil || mon.Samples() != 0 {
		t.Fatalf("Observe accepted a malformed sample (err %v, %d samples)", err, mon.Samples())
	}
}

// TestMonitorRefusesNonFiniteTelemetry: a NaN or infinite PMC value, and
// an IM reading that is not finite or is finite but beyond a megawatt, is
// refused by Push and Observe alike, and the monitor that refused it goes
// on bit-identical to one that was never sent it: the trend slope would
// carry one NaN reading into most of the following estimates, and a
// ±MaxFloat64 pair overflows it to -Inf.
func TestMonitorRefusesNonFiniteTelemetry(t *testing.T) {
	h := trainedModel(t)
	test := testSet(t, 40)
	nan, inf := math.NaN(), math.Inf(1)
	huge, hugeNeg, overMW := math.MaxFloat64, -math.MaxFloat64, 1.5e6
	cases := []struct {
		name string
		pmc  func([]float64) []float64
		meas *float64
	}{
		{"NaN reading", nil, &nan},
		{"+Inf reading", nil, &inf},
		{"+MaxFloat64 reading", nil, &huge},
		{"-MaxFloat64 reading", nil, &hugeNeg},
		{"1.5 MW reading", nil, &overMW},
		{"NaN PMC", func(p []float64) []float64 { p[3] = nan; return p }, nil},
		{"-Inf PMC", func(p []float64) []float64 { p[0] = math.Inf(-1); return p }, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ref, mon := NewMonitor(h), NewMonitor(h)
			for i, sm := range test.Samples {
				var measured *float64
				if i%10 == 0 {
					v := sm.PNode
					measured = &v
				}
				if i == 15 {
					bad := append([]float64(nil), sm.PMC...)
					if c.pmc != nil {
						bad = c.pmc(bad)
					}
					if _, err := mon.Push(bad, c.meas); err == nil {
						t.Fatal("Push accepted the bad sample")
					}
					if _, err := mon.Observe(bad, c.meas); err == nil {
						t.Fatal("Observe accepted the bad sample")
					}
				}
				want, err := ref.Push(sm.PMC, measured)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mon.Push(sm.PMC, measured)
				if err != nil || !sameMonitorEstimate(got, want) {
					t.Fatalf("step %d: %+v (err %v), never sent the bad sample %+v", i, got, err, want)
				}
			}
			if mon.Samples() != ref.Samples() {
				t.Fatalf("Samples = %d, want %d", mon.Samples(), ref.Samples())
			}
		})
	}
	// Readings of +MaxFloat64 at second 0 and -MaxFloat64 at second 10,
	// whatever the monitor makes of them, leave every estimate finite.
	t.Run("MaxFloat64 pair", func(t *testing.T) {
		mon := NewMonitor(h)
		for i, sm := range test.Samples {
			var measured *float64
			switch i {
			case 0:
				measured = &huge
			case 10:
				measured = &hugeNeg
			}
			est, err := mon.Push(sm.PMC, measured)
			if err != nil {
				continue
			}
			for _, v := range []float64{est.PNode, est.PCPU, est.PMEM, est.PNodePrime} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("step %d: estimate %+v is not finite", i, est)
				}
			}
		}
	})
}

// TestMonitorPushZeroAlloc: once the window is full a push allocates
// nothing on either path — the IM reading or the DynamicTRR window — and
// neither does Observe.
func TestMonitorPushZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the prediction executors are pooled, and sync.Pool drops items under -race")
	}
	h := trainedModel(t)
	test := testSet(t, 40)
	mon := NewMonitor(h)
	v := test.Samples[0].PNode
	for _, sm := range test.Samples[:20] { // fill the window, warm the prediction pools
		if _, err := mon.Push(sm.PMC, &v); err != nil {
			t.Fatal(err)
		}
		if _, err := mon.Push(sm.PMC, nil); err != nil {
			t.Fatal(err)
		}
	}
	pmc := test.Samples[20].PMC
	for name, push := range map[string]func(){
		"Push/DynamicTRR": func() { mon.Push(pmc, nil) },
		"Push/IM":         func() { mon.Push(pmc, &v) },
		"Observe":         func() { mon.Observe(pmc, nil) },
	} {
		if allocs := testing.AllocsPerRun(100, push); allocs != 0 {
			t.Errorf("%s allocates %.1f times per sample, want 0", name, allocs)
		}
	}
}

// TestRunReplaysMonitor: the full offline pipeline in dynamic mode — which
// replays the set through DynamicTRR.Run with fine-tuning off — is the
// monitor's three outputs over the same seconds, bit for bit, on a regular
// sensor, timestamps jittered as the §6.4.6 experiment jitters them, every
// third reading dropped, and a first reading that arrives late.
func TestRunReplaysMonitor(t *testing.T) {
	h := trainedModel(t)
	miss := h.Dynamic.Opts.MissInterval
	for _, n := range []int{120, 300, 600} {
		set := testSet(t, n)
		regular := set.MeasuredIndices(miss)
		jittered := make([]int, len(regular))
		var dropped, late []int
		for k, i := range regular {
			j := min(max(i+(k%3-1)*miss*2/5, 0), n-1)
			if k > 0 && j <= jittered[k-1] {
				j = jittered[k-1] + 1
			}
			jittered[k] = j
			if k%3 != 2 {
				dropped = append(dropped, i)
			}
			if i >= 20 {
				late = append(late, i)
			}
		}
		for name, idx := range map[string][]int{"regular": regular, "jittered": jittered, "dropped": dropped, "late": late} {
			node, pcpu, pmem, err := h.Restore(set, idx, nil, ModeDynamic)
			if err != nil {
				t.Fatal(err)
			}
			mon := NewMonitor(h)
			differ := 0
			for i, sm := range set.Samples {
				var measured *float64
				if len(idx) > 0 && idx[0] == i {
					measured, idx = &sm.PNode, idx[1:]
				}
				est, err := mon.Push(sm.PMC, measured)
				if err != nil {
					t.Fatal(err)
				}
				if !sameMonitorEstimate(est, MonitorEstimate{node[i], pcpu[i], pmem[i], est.PNodePrime, est.FromMeasurement}) {
					differ++
				}
			}
			if differ > 0 {
				t.Errorf("%d samples, %s readings: Restore(ModeDynamic) differs from Monitor.Push on %d seconds", n, name, differ)
			}
		}
	}
}

// TestRestoreLeavesModelUnchanged: restoring a set reads the served model
// and never writes it — the model file is byte-identical before and after
// Restore in either mode, with DynamicTRR's online fine-tuning at its
// default (on).
func TestRestoreLeavesModelUnchanged(t *testing.T) {
	h := trainedModel(t)
	if !h.Dynamic.Opts.FineTuneOnline {
		t.Fatal("the default model does not fine-tune online; the test would prove nothing")
	}
	before, err := Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(t, 200)
	for _, mode := range []RestoreMode{ModeStatic, ModeDynamic} {
		if _, _, _, err := h.Restore(set, set.MeasuredIndices(h.Dynamic.Opts.MissInterval), nil, mode); err != nil {
			t.Fatal(err)
		}
		after, err := Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("Restore(mode %d) changed the model file", mode)
		}
	}
}

// TestRestoreConcurrentWithMonitor: a dynamic Restore may run while a
// Monitor serves the same model on another goroutine. The monitor's
// estimates equal the ones it gives on a model nothing else touches, and
// under -race (scripts/verify.sh) the two share no write.
func TestRestoreConcurrentWithMonitor(t *testing.T) {
	h := trainedModel(t)
	set := testSet(t, 200)
	push := func() []MonitorEstimate {
		mon := NewMonitor(h)
		out := make([]MonitorEstimate, len(set.Samples))
		for i, sm := range set.Samples {
			var measured *float64
			if i%h.Dynamic.Opts.MissInterval == 0 {
				measured = &sm.PNode
			}
			est, err := mon.Push(sm.PMC, measured)
			if err != nil {
				t.Error(err)
				return nil
			}
			out[i] = est
		}
		return out
	}
	want := push()
	var got []MonitorEstimate
	done := make(chan struct{})
	go func() {
		defer close(done)
		got = push()
	}()
	for range 3 {
		if _, _, _, err := h.Restore(set, set.MeasuredIndices(h.Dynamic.Opts.MissInterval), nil, ModeDynamic); err != nil {
			t.Error(err)
		}
	}
	<-done
	if t.Failed() {
		return
	}
	// A second pass after the restores have finished sees the model they
	// left behind.
	for _, run := range [][]MonitorEstimate{got, push()} {
		for i := range want {
			if !sameMonitorEstimate(run[i], want[i]) {
				t.Fatalf("second %d: monitor beside Restore answered %+v, alone %+v", i, run[i], want[i])
			}
		}
	}
}
