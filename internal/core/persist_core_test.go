package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"highrpm/internal/mat"
	"highrpm/internal/neural"
	"highrpm/internal/pmu"
)

// TestFrameworkPersistenceRoundTrip: JSON carries a float64 exactly, so
// the loaded model estimates bit for bit as the saved one, served and
// offline.
func TestFrameworkPersistenceRoundTrip(t *testing.T) {
	train := trainSet(t, 150)
	opts := DefaultOptions()
	opts.Dynamic.Epochs = 4
	opts.Dynamic.MaxWindows = 150
	h, err := Train(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := Save(path, h); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	test := testSet(t, 100)
	same := func(what string, a, b []float64) {
		t.Helper()
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s diverged at %d: %g vs %g", what, i, a[i], b[i])
			}
		}
	}

	ref, mon := NewMonitor(h), NewMonitor(back)
	for i, sm := range test.Samples {
		var measured *float64
		if i%10 == 0 {
			measured = &sm.PNode
		}
		a, err := ref.Push(sm.PMC, measured)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mon.Push(sm.PMC, measured)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMonitorEstimate(a, b) {
			t.Fatalf("step %d: loaded model serves %+v, original %+v", i, b, a)
		}
	}

	idx := test.MeasuredIndices(10)
	a, err := h.Static.Restore(test, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Static.Restore(test, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	same("StaticTRR", a, b)
	// The file carries weights, not the optimiser's moments, so an online
	// fine-tune of the loaded network takes other steps than the original's.
	h.Dynamic.Opts.FineTuneOnline = false
	back.Dynamic.Opts.FineTuneOnline = false
	da, err := h.Dynamic.Run(test, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	db, err := back.Dynamic.Run(test, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	same("DynamicTRR", da, db)
	ca, ma := h.SRR.PredictSet(test, nil)
	cb, mb := back.SRR.PredictSet(test, nil)
	same("SRR P_CPU", ca, cb)
	same("SRR P_MEM", ma, mb)
}

func TestMarshalIncompleteFramework(t *testing.T) {
	if _, err := Marshal(&HighRPM{}); err == nil {
		t.Fatal("expected error for untrained framework")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("nope")); err == nil {
		t.Fatal("expected error")
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error")
	}
}

// withMember returns the JSON object obj with the member at path replaced by
// value, or deleted when value is empty.
func withMember(t testing.TB, obj json.RawMessage, value string, path ...string) json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		t.Fatal(err)
	}
	key := path[0]
	if _, ok := m[key]; !ok {
		t.Fatalf("no %q member to replace", key)
	}
	switch {
	case len(path) > 1:
		m[key] = withMember(t, m[key], value, path[1:]...)
	case value == "":
		delete(m, key)
	default:
		m[key] = json.RawMessage(value)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// lstmState and mlpState return the persisted state of a small fitted
// network of the given widths: self-consistent in every count, so only a
// check against the width the framework feeds it can refuse it.
func lstmState(t testing.TB, in int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	seqs, targets := make([][][]float64, 8), make([][]float64, 8)
	for i := range seqs {
		seqs[i] = [][]float64{randRow(rng, in), randRow(rng, in), randRow(rng, in)}
		targets[i] = randRow(rng, 3)
	}
	l := neural.NewLSTM(2, 1, 1)
	l.Epochs = 1
	if err := l.FitSeq(seqs, targets); err != nil {
		t.Fatal(err)
	}
	b, err := l.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func mlpState(t testing.TB, in, out int) string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	x, y := mat.NewDense(16, in), mat.NewDense(16, out)
	for i := 0; i < 16; i++ {
		copy(x.Row(i), randRow(rng, in))
		copy(y.Row(i), randRow(rng, out))
	}
	n := neural.NewMLP([]int{2}, out, 1)
	n.Epochs = 1
	if err := n.FitMulti(x, y); err != nil {
		t.Fatal(err)
	}
	b, err := n.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func randRow(rng *rand.Rand, n int) []float64 {
	r := make([]float64, n)
	for j := range r {
		r[j] = rng.NormFloat64()
	}
	return r
}

// TestUnmarshalMalformedSnapshot: model bytes also arrive from the network
// (ResilientAgent fetches its fallback model from a shard), so a snapshot
// whose counts, dimensions, tensor lengths or kind tags disagree, or whose
// networks are not as wide as the framework feeds them, or whose window is
// out of bounds, must be an error, never a panic or an out-of-memory crash —
// at decode or at the first estimate.
func TestUnmarshalMalformedSnapshot(t *testing.T) {
	data, err := Marshal(trainedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(withMember(t, data, "7", "srr", "state", "seed")); err != nil {
		t.Fatalf("a harmless edit was rejected: %v", err)
	}
	noNode := withMember(t, data, "false", "opts", "SRR", "UseNode")
	if _, err := Unmarshal(withMember(t, noNode, mlpState(t, pmu.NumEvents, 2), "srr", "state")); err != nil {
		t.Fatalf("a PMC-only SRR without the node feature was rejected: %v", err)
	}
	for _, c := range []struct{ name, at, value string }{
		{"short weights", "srr.state.weights", `[]`},
		{"short biases", "srr.state.biases", `[[0]]`},
		{"negative dims", "srr.state.dims", `[[-1,5],[5,2]]`},
		{"huge dims", "srr.state.dims", `[[4611686018427387904,4],[4,2]]`},
		{"no dims", "srr.state.dims", `[]`},
		{"narrow srr x_scaler", "srr.state.x_scaler", `{"mean":[0],"std":[1]}`},
		{"no y_scaler", "srr.state.y_scaler", `[]`},
		{"tensors length != layers", "dynamic.state.tensors", `[]`},
		{"empty layer", "dynamic.state.tensors", `[[],[]]`},
		{"short tensor", "dynamic.state.tensors", `[[[1],[1],[1]],[[1],[1],[1]]]`},
		{"negative hidden", "dynamic.state.hidden", `-16`},
		{"huge hidden", "dynamic.state.hidden", `1000000000`},
		{"negative layers", "dynamic.state.layers", `-2`},
		{"huge input_dim", "dynamic.state.input_dim", `1000000000`},
		{"narrow x_scaler", "dynamic.state.x_scaler", `{"mean":[0],"std":[1]}`},
		{"ragged x_scaler", "dynamic.state.x_scaler", `{"mean":[0,0],"std":[1]}`},
		{"short wy", "dynamic.state.wy", `[]`},
		{"dynamic tagged neural.gru", "dynamic.kind", `"neural.gru"`},
		{"srr tagged neural.lstm", "srr.kind", `"neural.lstm"`},
		{"empty kind", "dynamic.kind", `""`},
		{"missing state", "srr.state", ""},
		{"3-input dynamic", "dynamic.state", lstmState(t, 3)},
		{"3-input srr", "srr.state", mlpState(t, 3, 2)},
		{"3-output srr", "srr.state", mlpState(t, pmu.NumEvents+1, 3)},
		{"1-output srr", "srr.state", mlpState(t, pmu.NumEvents+1, 1)},
		{"node-fed srr without the node feature", "opts.SRR.UseNode", "false"},
		{"zero window", "opts.Dynamic.MissInterval", "0"},
		{"one-sample window", "opts.Dynamic.MissInterval", "1"},
		{"negative window", "opts.Dynamic.MissInterval", "-5"},
		{"huge window", "opts.Dynamic.MissInterval", "1000000000000"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if h, err := Unmarshal(withMember(t, data, c.value, strings.Split(c.at, ".")...)); err == nil {
				t.Fatalf("malformed snapshot decoded to %+v", h.Opts)
			}
		})
	}
}

// FuzzUnmarshalMonitor runs arbitrary model bytes down the path a degraded
// ResilientAgent takes with the model a shard sent it: Unmarshal, NewMonitor,
// then Pushes with and without readings. The law: every input yields an
// error or estimates, never a panic or a fatal error.
func FuzzUnmarshalMonitor(f *testing.F) {
	// A small trained model keeps the seeds short, so minimising an
	// interesting input stays cheap.
	opts := DefaultOptions()
	opts.Dynamic.Hidden, opts.Dynamic.Epochs, opts.Dynamic.MaxWindows = 2, 1, 50
	opts.SRR.Hidden, opts.SRR.Epochs = 2, 1
	opts.ActiveLearning = false
	h, err := Train(trainSet(f, 40), opts)
	if err != nil {
		f.Fatal(err)
	}
	data, err := Marshal(h)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, c := range []struct{ at, value string }{
		{"dynamic.state", lstmState(f, pmu.NumEvents+1)},
		{"dynamic.state", lstmState(f, 3)},
		{"srr.state", mlpState(f, 3, 2)},
		{"srr.state", mlpState(f, pmu.NumEvents+1, 3)},
		{"srr.state", mlpState(f, pmu.NumEvents+1, 1)},
		{"opts.SRR.UseNode", "false"},
		{"opts.Dynamic.MissInterval", "0"},
		{"opts.Dynamic.MissInterval", "1"},
		{"opts.Dynamic.MissInterval", "-5"},
		{"opts.Dynamic.MissInterval", "1000000000000"},
	} {
		f.Add([]byte(withMember(f, data, c.value, strings.Split(c.at, ".")...)))
	}
	pmc := make([]float64, pmu.NumEvents)
	for i := range pmc {
		pmc[i] = float64(i + 1)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := Unmarshal(data)
		if err != nil {
			return
		}
		mon := NewMonitor(h)
		for i := 0; i < 25; i++ {
			var measured *float64
			if i%10 == 3 {
				reading := 100.0 + float64(i)
				measured = &reading
			}
			if _, err := mon.Push(pmc, measured); err != nil {
				return
			}
		}
	})
}
