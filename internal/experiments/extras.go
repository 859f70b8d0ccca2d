package experiments

import (
	"strconv"
	"time"

	"highrpm/internal/core"
	"highrpm/internal/stats"
)

// HyperPoint is one hyperparameter assignment's accuracy (§6.4.3).
type HyperPoint struct {
	Label string
	Node  stats.Metrics
	CPU   stats.Metrics
}

// HyperResult holds the §6.4.3 hyperparametric analysis.
type HyperResult struct {
	LSTMLayers []HyperPoint
	SRRHidden  []HyperPoint
}

// RunHyper reproduces the §6.4.3 analysis: DynamicTRR accuracy over the
// number of LSTM layers (paper: best at two) and SRR accuracy over hidden
// width (paper: deeper/wider dilutes the node-power signal).
func RunHyper(ws *Workspace) (*HyperResult, error) {
	cfg := ws.Config()
	sp, err := ws.Split(cfg.combos()[0], false)
	if err != nil {
		return nil, err
	}
	out := &HyperResult{}
	for _, layers := range []int{1, 2, 4} {
		opts := cfg.coreOptions().Dynamic
		opts.Layers = layers
		dyn, err := core.FitDynamicTRR(sp.Train, opts)
		if err != nil {
			return nil, err
		}
		m, err := dyn.Evaluate(sp.Test)
		if err != nil {
			return nil, err
		}
		out.LSTMLayers = append(out.LSTMLayers, HyperPoint{Label: label("layers", layers), Node: m})
	}
	st, err := core.FitStaticTRR(sp.Train, cfg.coreOptions().Static)
	if err != nil {
		return nil, err
	}
	idx := sp.Test.MeasuredIndices(cfg.MissInterval)
	restored, err := st.Restore(sp.Test, idx, nil)
	if err != nil {
		return nil, err
	}
	for _, hidden := range []int{8, 32, 128} {
		opts := cfg.coreOptions().SRR
		opts.Hidden = hidden
		srr, err := core.FitSRR(sp.Train, nil, opts)
		if err != nil {
			return nil, err
		}
		cpuM, _ := srr.Evaluate(sp.Test, restored)
		out.SRRHidden = append(out.SRRHidden, HyperPoint{Label: label("hidden", hidden), CPU: cpuM})
	}
	return out, nil
}

func label(name string, v int) string {
	return name + "=" + strconv.Itoa(v)
}

// Table renders the hyperparameter sweep.
func (r *HyperResult) Table() *Table {
	t := &Table{
		ID:     "hyper",
		Title:  "§6.4.3: Hyperparametric analysis",
		Header: []string{"Knob", "P_Node MAPE(%)", "P_CPU MAPE(%)"},
	}
	for _, p := range r.LSTMLayers {
		t.AddRow("DynamicTRR "+p.Label, f2(p.Node.MAPE), "-")
	}
	for _, p := range r.SRRHidden {
		t.AddRow("SRR "+p.Label, "-", f2(p.CPU.MAPE))
	}
	t.Notes = append(t.Notes, "shape target: two LSTM layers near-optimal; modest SRR width suffices")
	return t
}

// OverheadResult holds the §6.4.5 cost measurements.
type OverheadResult struct {
	OfflineTrain   time.Duration
	FineTune       time.Duration
	PredictNode    time.Duration // per-sample DynamicTRR latency
	PredictSpatial time.Duration // per-sample SRR latency
	InitialSamples int
	ReinforceCount int
}

// RunOverhead reproduces the §6.4.5 cost claims: offline training well
// under 10 minutes, fine-tuning around 2 s, prediction latency under 1 ms.
func RunOverhead(ws *Workspace) (*OverheadResult, error) {
	cfg := ws.Config()
	sp, err := ws.Split(cfg.combos()[0], false)
	if err != nil {
		return nil, err
	}
	opts := cfg.coreOptions()
	start := time.Now()
	h, err := core.Train(sp.Train, opts)
	if err != nil {
		return nil, err
	}
	out := &OverheadResult{
		OfflineTrain:   time.Since(start),
		InitialSamples: h.TrainStats.InitialSamples,
		ReinforceCount: h.TrainStats.ReinforceCount,
	}

	// Fine-tune cost: one DynamicTRR refinement pass.
	idx := sp.Test.MeasuredIndices(cfg.MissInterval)
	start = time.Now()
	if _, err := h.Dynamic.Run(sp.Test.Slice(0, 3*cfg.MissInterval), idx[:3], nil); err != nil {
		return nil, err
	}
	out.FineTune = time.Since(start)

	// Prediction latency.
	probe := sp.Test.Slice(0, 2*cfg.MissInterval)
	h.Dynamic.Opts.FineTuneOnline = false
	start = time.Now()
	if _, err := h.Dynamic.Run(probe, probe.MeasuredIndices(cfg.MissInterval), nil); err != nil {
		return nil, err
	}
	out.PredictNode = time.Since(start) / time.Duration(probe.Len())

	start = time.Now()
	const reps = 1000
	for i := 0; i < reps; i++ {
		h.SRR.Predict(probe.Samples[0].PMC, probe.Samples[0].PNode)
	}
	out.PredictSpatial = time.Since(start) / reps
	return out, nil
}

// Table renders the overhead measurements.
func (r *OverheadResult) Table() *Table {
	t := &Table{
		ID:     "overhead",
		Title:  "§6.4.5: Training and prediction overhead",
		Header: []string{"Cost", "Measured", "Paper claim"},
	}
	t.AddRow("offline training", r.OfflineTrain.Round(time.Millisecond).String(), "< 10 min")
	t.AddRow("online fine-tune", r.FineTune.Round(time.Millisecond).String(), "< 2 s")
	t.AddRow("node prediction latency", r.PredictNode.Round(time.Microsecond).String(), "< 1 ms")
	t.AddRow("component prediction latency", r.PredictSpatial.Round(time.Microsecond).String(), "< 1 ms")
	return t
}

// JitterResult holds the §6.4.6 robustness probe.
type JitterResult struct {
	Clean    stats.Metrics
	Jittered stats.Metrics
	Dropped  stats.Metrics
}

// RunJitter reproduces the §6.4.6 limitation: when the miss_interval
// fluctuates (network congestion) or readings drop, DynamicTRR's windows no
// longer contain exactly one measurement and accuracy degrades.
func RunJitter(ws *Workspace) (*JitterResult, error) {
	cfg := ws.Config()
	sp, err := ws.Split(cfg.combos()[0], false)
	if err != nil {
		return nil, err
	}
	opts := cfg.coreOptions()
	dyn, err := core.FitDynamicTRR(sp.Train, opts.Dynamic)
	if err != nil {
		return nil, err
	}
	truth := sp.Test.NodePower()
	clean := sp.Test.MeasuredIndices(cfg.MissInterval)
	est, err := dyn.Run(sp.Test, clean, nil)
	if err != nil {
		return nil, err
	}
	out := &JitterResult{Clean: stats.Evaluate(truth, est)}

	// Jitter: wobble each measurement index by ±40% of the interval.
	jit := make([]int, len(clean))
	for k, i := range clean {
		d := (k%3 - 1) * cfg.MissInterval * 2 / 5
		j := i + d
		if j < 0 {
			j = 0
		}
		if j >= sp.Test.Len() {
			j = sp.Test.Len() - 1
		}
		if k > 0 && j <= jit[k-1] {
			j = jit[k-1] + 1
		}
		jit[k] = j
	}
	est, err = dyn.Run(sp.Test, jit, nil)
	if err != nil {
		return nil, err
	}
	out.Jittered = stats.Evaluate(truth, est)

	// Drops: lose every third reading.
	var dropped []int
	for k, i := range clean {
		if k%3 != 2 {
			dropped = append(dropped, i)
		}
	}
	est, err = dyn.Run(sp.Test, dropped, nil)
	if err != nil {
		return nil, err
	}
	out.Dropped = stats.Evaluate(truth, est)
	return out, nil
}

// Table renders the robustness probe.
func (r *JitterResult) Table() *Table {
	t := &Table{
		ID:     "jitter",
		Title:  "§6.4.6: DynamicTRR robustness to fluctuating miss_interval",
		Header: []string{"Sensor behaviour", "MAPE(%)", "RMSE", "MAE"},
	}
	t.AddRow("clean (fixed interval)", f2(r.Clean.MAPE), f2(r.Clean.RMSE), f2(r.Clean.MAE))
	t.AddRow("jittered timestamps", f2(r.Jittered.MAPE), f2(r.Jittered.RMSE), f2(r.Jittered.MAE))
	t.AddRow("every 3rd reading dropped", f2(r.Dropped.MAPE), f2(r.Dropped.RMSE), f2(r.Dropped.MAE))
	t.Notes = append(t.Notes, "shape target: readings that move or vanish degrade accuracy (paper §6.4.6)")
	return t
}
