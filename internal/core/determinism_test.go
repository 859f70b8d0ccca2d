package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"runtime"
	"testing"
)

// Golden hashes of a fixed-seed online DynamicTRR run (float64 bit patterns
// of the estimate series, and the persisted network after its online
// fine-tunes). The run must reproduce both byte-for-byte on any machine.
// Re-pinned when Run became a replay through Monitor's stream: the loop
// they had pinned since the original implementation rebuilt every window
// row's P'_Node feature from the newest trend before each prediction, so a
// later IM reading revised features the row had already been served with.
const (
	goldenDynRunBitsHash = "211721d83623c160111f43a696ffd4677ece55ce5d970467e1cd4d66cbdd8615"
	goldenDynNetHash     = "586590244930b49ae60ccb5763c45c71abf2d97251c9d5bc4070c84f3dc0951f"
)

func TestDynamicRunMatchesGolden(t *testing.T) {
	train := trainSet(t, 160)
	opts := DefaultDynamicTRROptions()
	opts.Epochs = 3
	opts.MaxWindows = 200
	dyn, err := FitDynamicTRR(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	eval := testSet(t, 120)
	idx := eval.MeasuredIndices(opts.MissInterval)
	est, err := dyn.Run(eval, idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	for _, v := range est {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDynRunBitsHash {
		t.Errorf("DynamicTRR.Run estimate bits hash = %s, want golden %s", got, goldenDynRunBitsHash)
	}
	b, err := dyn.Net.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != goldenDynNetHash {
		t.Errorf("DynamicTRR fine-tuned net hash = %s, want golden %s", got, goldenDynNetHash)
	}
}

// TestTrainIndependentOfGOMAXPROCS pins that a trained model is a function
// of seed and data, not of the machine: the same Train call under one and
// under four Ps must persist to the same bytes.
func TestTrainIndependentOfGOMAXPROCS(t *testing.T) {
	train := trainSet(t, 150)
	opts := DefaultOptions()
	opts.Dynamic.Epochs = 4
	opts.Dynamic.MaxWindows = 150
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var models [2][]byte
	for k, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		h, err := Train(train, opts)
		if err != nil {
			t.Fatal(err)
		}
		if models[k], err = Marshal(h); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(models[0], models[1]) {
		t.Fatal("the model trained under GOMAXPROCS=1 differs from the one trained under GOMAXPROCS=4")
	}
}

// addMember returns the JSON object obj with the member name: value added to
// the sub-object at path, as model files written before a knob was deleted
// carry it.
func addMember(t *testing.T, obj json.RawMessage, name, value string, path ...string) json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		t.Fatal(err)
	}
	if len(path) == 0 {
		m[name] = json.RawMessage(value)
	} else {
		m[path[0]] = addMember(t, m[path[0]], name, value, path[1:]...)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUnmarshalLegacyWorkersField: model files written so far carry
// "Workers" in opts.Static, opts.Dynamic, opts.SRR and static.opts, and
// "ReinforceFraction" and "FineTuneEpochs" in opts; they must keep decoding,
// to a model that estimates exactly as it did.
func TestUnmarshalLegacyWorkersField(t *testing.T) {
	data, err := Marshal(trainedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Workers", "ReinforceFraction", "FineTuneEpochs"} {
		if bytes.Contains(data, []byte(`"`+name+`"`)) {
			t.Fatalf("a freshly marshalled model still persists a %s field", name)
		}
	}
	legacy := json.RawMessage(data)
	for _, path := range [][]string{{"opts", "Static"}, {"opts", "Dynamic"}, {"opts", "SRR"}, {"static", "opts"}} {
		legacy = addMember(t, legacy, "Workers", "2", path...)
	}
	legacy = addMember(t, legacy, "ReinforceFraction", "0.3", "opts")
	legacy = addMember(t, legacy, "FineTuneEpochs", "5", "opts")
	for _, c := range []struct {
		member string
		n      int
	}{{`"Workers":2`, 4}, {`"ReinforceFraction":0.3`, 1}, {`"FineTuneEpochs":5`, 1}} {
		if got := bytes.Count(legacy, []byte(c.member)); got != c.n {
			t.Fatalf("injected %d %s members, want %d", got, c.member, c.n)
		}
	}
	want, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(legacy)
	if err != nil {
		t.Fatalf("legacy model file rejected: %v", err)
	}
	ref, mon := NewMonitor(want), NewMonitor(got)
	for i, sm := range testSet(t, 60).Samples {
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
			t.Fatalf("step %d: legacy model estimates %+v, current %+v", i, b, a)
		}
	}
}
