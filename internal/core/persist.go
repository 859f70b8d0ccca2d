package core

import (
	"encoding/json"
	"fmt"
	"os"

	"highrpm/internal/model"
	"highrpm/internal/neural"
	"highrpm/internal/tree"
)

// frameworkState is the JSON schema of a trained HighRPM instance.
type frameworkState struct {
	Opts    Options         `json:"opts"`
	Static  staticState     `json:"static"`
	Dynamic json.RawMessage `json:"dynamic"` // neural.LSTM envelope
	SRR     json.RawMessage `json:"srr"`     // neural.MLP envelope
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
	dyn, err := model.Encode(h.Dynamic.Net)
	if err != nil {
		return nil, fmt.Errorf("core: encode DynamicTRR: %w", err)
	}
	srr, err := model.Encode(h.SRR.Net)
	if err != nil {
		return nil, fmt.Errorf("core: encode SRR: %w", err)
	}
	st := frameworkState{
		Opts: h.Opts,
		Static: staticState{
			Opts: h.Static.Opts, PUpper: h.Static.PUpper, PBottom: h.Static.PBottom,
			Scaler: scaled.Scaler, Tree: dt,
		},
		Dynamic: dyn,
		SRR:     srr,
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

// Unmarshal deserialises a trained framework.
func Unmarshal(data []byte) (*HighRPM, error) {
	var st frameworkState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("core: bad framework state: %w", err)
	}
	dynAny, err := model.Decode(st.Dynamic)
	if err != nil {
		return nil, fmt.Errorf("core: decode DynamicTRR: %w", err)
	}
	srrAny, err := model.Decode(st.SRR)
	if err != nil {
		return nil, fmt.Errorf("core: decode SRR: %w", err)
	}
	h := &HighRPM{Opts: st.Opts}
	h.Static = &StaticTRR{
		Opts:    st.Static.Opts,
		PUpper:  st.Static.PUpper,
		PBottom: st.Static.PBottom,
		Res:     &model.ScaledRegressor{Inner: st.Static.Tree, Scaler: st.Static.Scaler},
	}
	dyn, ok := dynAny.(*neural.LSTM)
	if !ok {
		return nil, fmt.Errorf("core: DynamicTRR payload has type %T", dynAny)
	}
	h.Dynamic = &DynamicTRR{Opts: st.Opts.Dynamic, Net: dyn, cold: 0.5 * (st.Static.PBottom + st.Static.PUpper)}
	srrNet, ok := srrAny.(*neural.MLP)
	if !ok {
		return nil, fmt.Errorf("core: SRR payload has type %T", srrAny)
	}
	h.SRR = &SRR{Opts: st.Opts.SRR, Net: srrNet}
	return h, nil
}
