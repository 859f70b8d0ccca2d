package model_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/model"
	"highrpm/internal/workload"
)

// The model file (core.Save/Load) carries this package's ScaledRegressor
// and StandardScaler as StaticTRR's residual model. These tests drive the
// file from outside core on one small trained framework.

var (
	framework     *core.HighRPM
	frameworkErr  error
	frameworkOnce sync.Once
)

func trainedFramework(t *testing.T) *core.HighRPM {
	t.Helper()
	frameworkOnce.Do(func() {
		cfg := dataset.DefaultGenerateConfig()
		cfg.SamplesPerSuite = 60
		train := &dataset.Set{}
		for _, s := range []string{workload.SuiteHPCC, workload.SuiteSPEC} {
			set, err := dataset.GenerateSuite(cfg, s)
			if err != nil {
				frameworkErr = err
				return
			}
			train.Append(set)
		}
		opts := core.DefaultOptions()
		opts.Dynamic.Epochs = 1
		opts.Dynamic.MaxWindows = 50
		opts.ActiveLearning = false
		framework, frameworkErr = core.Train(train, opts)
	})
	if frameworkErr != nil {
		t.Fatal(frameworkErr)
	}
	return framework
}

func TestSaveLoadRoundTrip(t *testing.T) {
	h := trainedFramework(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := core.Save(path, h); err != nil {
		t.Fatal(err)
	}
	back, err := core.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := back.Static.Res.(*model.ScaledRegressor)
	if !ok {
		t.Fatalf("decoded residual model type %T", back.Static.Res)
	}
	orig := h.Static.Res.(*model.ScaledRegressor)
	for i := 0; i < 5; i++ {
		x := make([]float64, len(orig.Scaler.Mean))
		for j, m := range orig.Scaler.Mean {
			x[j] = m + float64(i-2)*orig.Scaler.Std[j]
		}
		if a, b := orig.Predict(x), res.Predict(x); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("residual prediction %d: %g before save, %g after load", i, a, b)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-saving the loaded model changed the file")
	}
}

// TestDecodeBadEnvelope replaces one network's {"kind","state"} envelope in
// an otherwise valid file with JSON that is not an envelope.
func TestDecodeBadEnvelope(t *testing.T) {
	data, err := core.Marshal(trainedFramework(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []string{"dynamic", "srr"} {
		var file map[string]json.RawMessage
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		file[slot] = json.RawMessage(`"not an envelope"`)
		bad, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Unmarshal(bad); err == nil {
			t.Fatalf("a string in place of the %s envelope decoded", slot)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := core.Load(filepath.Join(t.TempDir(), "missing.json"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Load of a missing file: %v, want fs.ErrNotExist", err)
	}
}
