package core

import (
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
)

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
	idx := test.MeasuredIndices(10)
	// StaticTRR restorations must match exactly.
	a, err := h.Static.Restore(test, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Static.Restore(test, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("StaticTRR diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
	// DynamicTRR predictions (without online fine-tuning, which mutates
	// the nets differently once they diverge) must match.
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
	for i := range da {
		if math.Abs(da[i]-db[i]) > 1e-9 {
			t.Fatalf("DynamicTRR diverged at %d: %g vs %g", i, da[i], db[i])
		}
	}
	// SRR predictions must match.
	ca, ma := h.SRR.PredictSet(test, nil)
	cb, mb := back.SRR.PredictSet(test, nil)
	for i := range ca {
		if math.Abs(ca[i]-cb[i]) > 1e-9 || math.Abs(ma[i]-mb[i]) > 1e-9 {
			t.Fatalf("SRR diverged at %d", i)
		}
	}
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

// withState returns the model file data with one member of the named
// network's persisted state ("srr" or "dynamic") replaced.
func withState(t *testing.T, data []byte, net, member, value string) []byte {
	t.Helper()
	edit := func(obj json.RawMessage, key string, f func(json.RawMessage) json.RawMessage) json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(obj, &m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m[key]; !ok {
			t.Fatalf("no %q member to replace", key)
		}
		m[key] = f(m[key])
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	return edit(data, net, func(env json.RawMessage) json.RawMessage {
		return edit(env, "state", func(st json.RawMessage) json.RawMessage {
			return edit(st, member, func(json.RawMessage) json.RawMessage { return json.RawMessage(value) })
		})
	})
}

// TestUnmarshalMalformedSnapshot: model bytes also arrive from the network
// (ResilientAgent fetches its fallback model from a shard), so a snapshot
// whose counts, dimensions or tensor lengths disagree must be an error,
// never a panic — at decode or at the first estimate.
func TestUnmarshalMalformedSnapshot(t *testing.T) {
	data, err := Marshal(trainedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(withState(t, data, "srr", "seed", "7")); err != nil {
		t.Fatalf("a harmless edit was rejected: %v", err)
	}
	for _, c := range []struct{ name, net, member, value string }{
		{"short weights", "srr", "weights", `[]`},
		{"short biases", "srr", "biases", `[[0]]`},
		{"negative dims", "srr", "dims", `[[-1,5],[5,2]]`},
		{"huge dims", "srr", "dims", `[[4611686018427387904,4],[4,2]]`},
		{"no dims", "srr", "dims", `[]`},
		{"narrow srr x_scaler", "srr", "x_scaler", `{"mean":[0],"std":[1]}`},
		{"no y_scaler", "srr", "y_scaler", `[]`},
		{"tensors length != layers", "dynamic", "tensors", `[]`},
		{"empty layer", "dynamic", "tensors", `[[],[]]`},
		{"short tensor", "dynamic", "tensors", `[[[1],[1],[1]],[[1],[1],[1]]]`},
		{"negative hidden", "dynamic", "hidden", `-16`},
		{"huge hidden", "dynamic", "hidden", `1000000000`},
		{"negative layers", "dynamic", "layers", `-2`},
		{"huge input_dim", "dynamic", "input_dim", `1000000000`},
		{"narrow x_scaler", "dynamic", "x_scaler", `{"mean":[0],"std":[1]}`},
		{"ragged x_scaler", "dynamic", "x_scaler", `{"mean":[0,0],"std":[1]}`},
		{"short wy", "dynamic", "wy", `[]`},
	} {
		t.Run(c.name, func(t *testing.T) {
			if h, err := Unmarshal(withState(t, data, c.net, c.member, c.value)); err == nil {
				t.Fatalf("malformed snapshot decoded to %+v", h.Opts)
			}
		})
	}
}
