package experiments

import (
	"time"

	"highrpm/internal/core"
)

// OverheadResult holds the §6.4.5 cost measurements.
type OverheadResult struct {
	OfflineTrain   time.Duration
	FineTune       time.Duration
	PredictNode    time.Duration // per-sample DynamicTRR latency
	PredictSpatial time.Duration // per-sample SRR latency
}

// RunOverhead reproduces the §6.4.5 cost claims: offline training well
// under 10 minutes, fine-tuning around 2 s, prediction latency under 1 ms.
func RunOverhead(ws *Workspace) (*OverheadResult, error) {
	t, err := ws.firstUnseen()
	if err != nil {
		return nil, err
	}
	miss := t.cfg.MissInterval
	start := time.Now()
	h, err := core.Train(t.train, t.opts)
	if err != nil {
		return nil, err
	}
	out := &OverheadResult{OfflineTrain: time.Since(start)}

	// Fine-tune cost: one DynamicTRR refinement pass.
	start = time.Now()
	if _, err := h.Dynamic.Run(t.test.Slice(0, 3*miss), t.idx[:3], nil); err != nil {
		return nil, err
	}
	out.FineTune = time.Since(start)

	// Prediction latency.
	probe := t.test.Slice(0, 2*miss)
	h.Dynamic.Opts.FineTuneOnline = false
	start = time.Now()
	if _, err := h.Dynamic.Run(probe, t.idx[:2], nil); err != nil {
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

// Tables renders the overhead measurements.
func (r *OverheadResult) Tables() []*Table {
	t := &Table{
		ID:     "overhead",
		Title:  "§6.4.5: Training and prediction overhead",
		Header: []string{"Cost", "Measured", "Paper claim"},
	}
	t.AddRow("offline training", r.OfflineTrain.Round(time.Millisecond).String(), "< 10 min")
	t.AddRow("online fine-tune", r.FineTune.Round(time.Millisecond).String(), "< 2 s")
	t.AddRow("node prediction latency", r.PredictNode.Round(time.Microsecond).String(), "< 1 ms")
	t.AddRow("component prediction latency", r.PredictSpatial.Round(time.Microsecond).String(), "< 1 ms")
	return []*Table{t}
}
