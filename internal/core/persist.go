package core

import (
	"encoding/json"
	"fmt"
	"os"

	"highrpm/internal/model"
	"highrpm/internal/neural"
	"highrpm/internal/pmu"
	"highrpm/internal/tree"
)

// The kind tags of the two networks in a model file.
const (
	lstmKind = "neural.lstm"
	mlpKind  = "neural.mlp"
)

// maxMissInterval bounds a model file's DynamicTRR window: an hour of
// 1 Sa/s samples. A Monitor holds a window of that many rows, so a file
// from a peer must not size it freely.
const maxMissInterval = 3600

// frameworkState is the JSON schema of a trained HighRPM instance.
type frameworkState struct {
	Opts    Options     `json:"opts"`
	Static  staticState `json:"static"`
	Dynamic netState    `json:"dynamic"` // tagged lstmKind
	SRR     netState    `json:"srr"`     // tagged mlpKind
}

// netState is one network of the model file: its kind tag and the state
// the network marshals itself to.
type netState struct {
	Kind  string          `json:"kind"`
	State json.RawMessage `json:"state"`
}

// staticState persists StaticTRR: the residual tree with its scaler plus
// the power band. The spline itself is per-trace, not part of the model.
type staticState struct {
	Opts    StaticTRROptions      `json:"opts"`
	PUpper  float64               `json:"p_upper"`
	PBottom float64               `json:"p_bottom"`
	Scaler  *model.StandardScaler `json:"scaler"`
	Tree    *tree.Regressor       `json:"tree"`
}

// Save writes a trained framework to path as JSON.
func Save(path string, h *HighRPM) error {
	data, err := Marshal(h)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Marshal serialises a trained framework.
func Marshal(h *HighRPM) ([]byte, error) {
	if h.Static == nil || h.Dynamic == nil || h.SRR == nil {
		return nil, fmt.Errorf("core: marshal of incompletely trained framework")
	}
	scaled, ok := h.Static.Res.(*model.ScaledRegressor)
	if !ok {
		return nil, fmt.Errorf("core: unexpected ResModel type %T", h.Static.Res)
	}
	dt, ok := scaled.Inner.(*tree.Regressor)
	if !ok {
		return nil, fmt.Errorf("core: unexpected ResModel inner type %T", scaled.Inner)
	}
	dyn, err := h.Dynamic.Net.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("core: encode DynamicTRR: %w", err)
	}
	srr, err := h.SRR.Net.MarshalState()
	if err != nil {
		return nil, fmt.Errorf("core: encode SRR: %w", err)
	}
	st := frameworkState{
		Opts: h.Opts,
		Static: staticState{
			Opts: h.Static.Opts, PUpper: h.Static.PUpper, PBottom: h.Static.PBottom,
			Scaler: scaled.Scaler, Tree: dt,
		},
		Dynamic: netState{Kind: lstmKind, State: dyn},
		SRR:     netState{Kind: mlpKind, State: srr},
	}
	return json.MarshalIndent(st, "", " ")
}

// Load reads a trained framework from path.
func Load(path string) (*HighRPM, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// Unmarshal deserialises a trained framework. The bytes may come from a
// peer, so each network must carry its slot's kind tag and be exactly as
// wide as the framework feeds it, and the DynamicTRR window must lie in
// 2…maxMissInterval: a network of the wrong width would otherwise panic at
// the first estimate, and a huge window exhaust memory there.
func Unmarshal(data []byte) (*HighRPM, error) {
	var st frameworkState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("core: bad framework state: %w", err)
	}
	if miss := st.Opts.Dynamic.MissInterval; miss < 2 || miss > maxMissInterval {
		return nil, fmt.Errorf("core: DynamicTRR window of %d samples, want 2 to %d", miss, maxMissInterval)
	}
	if st.Dynamic.Kind != lstmKind || st.SRR.Kind != mlpKind {
		return nil, fmt.Errorf("core: model file holds a %q DynamicTRR and a %q SRR, want %q and %q",
			st.Dynamic.Kind, st.SRR.Kind, lstmKind, mlpKind)
	}
	dyn, err := neural.UnmarshalLSTM(st.Dynamic.State)
	if err != nil {
		return nil, fmt.Errorf("core: decode DynamicTRR: %w", err)
	}
	if in := dyn.InputDim(); in != pmu.NumEvents+1 {
		return nil, fmt.Errorf("core: DynamicTRR takes %d inputs, want %d", in, pmu.NumEvents+1)
	}
	srrNet, err := neural.UnmarshalMLP(st.SRR.State)
	if err != nil {
		return nil, fmt.Errorf("core: decode SRR: %w", err)
	}
	srrIn := pmu.NumEvents
	if st.Opts.SRR.UseNode {
		srrIn++
	}
	if in, out := srrNet.Dims(); in != srrIn || out != 2 {
		return nil, fmt.Errorf("core: SRR is %d→%d, want %d→2", in, out, srrIn)
	}
	h := &HighRPM{Opts: st.Opts}
	h.Static = &StaticTRR{
		Opts:    st.Static.Opts,
		PUpper:  st.Static.PUpper,
		PBottom: st.Static.PBottom,
		Res:     &model.ScaledRegressor{Inner: st.Static.Tree, Scaler: st.Static.Scaler},
	}
	h.Dynamic = &DynamicTRR{Opts: st.Opts.Dynamic, Net: dyn, cold: 0.5 * (st.Static.PBottom + st.Static.PUpper)}
	h.SRR = &SRR{Opts: st.Opts.SRR, Net: srrNet}
	return h, nil
}
