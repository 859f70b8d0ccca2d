package experiments

import (
	"strconv"

	"highrpm/internal/core"
	"highrpm/internal/interp"
	"highrpm/internal/neural"
	"highrpm/internal/stats"
)

// hyperLayers are the LSTM depths RunHyper scores DynamicTRR at, each at
// the default width.
var hyperLayers = []int{1, 2, 4}

// hyperLayersRow names the RunHyper row for one LSTM depth.
func hyperLayersRow(layers int) string { return "DynamicTRR layers=" + strconv.Itoa(layers) }

// RunHyper reproduces the §6.4.3 analysis: DynamicTRR accuracy over the
// number of LSTM layers (paper: best at two; here best at one, the shipped
// default), one narrower single-layer net as the next cheaper candidate,
// and SRR accuracy over hidden width (paper: deeper/wider dilutes the
// node-power signal).
func RunHyper(ws *Workspace) (*Comparison, error) {
	t, err := ws.firstUnseen()
	if err != nil {
		return nil, err
	}
	dyn := func(name string, layers, hidden int) method {
		return method{name, "TRR", nodeOnly, func(t *trial, _ target) (stats.Metrics, error) {
			o := t.opts.Dynamic
			o.Layers = layers
			if hidden > 0 {
				o.Hidden = hidden
			}
			return t.dynamic(o)
		}}
	}
	var ms []method
	for _, layers := range hyperLayers {
		ms = append(ms, dyn(hyperLayersRow(layers), layers, 0))
	}
	ms = append(ms, dyn("DynamicTRR layers=1 hidden=8", 1, 8))
	for _, hidden := range []int{8, 32, 128} {
		ms = append(ms, method{"SRR hidden=" + strconv.Itoa(hidden), "SRR", []target{targetCPU},
			func(t *trial, tgt target) (stats.Metrics, error) {
				o := t.opts.SRR
				o.Hidden = hidden
				return t.srr(o, tgt)
			}})
	}
	return t.variants(ms, func(c *Comparison) []*Table {
		return []*Table{c.rows(&Table{
			ID:     "hyper",
			Title:  "§6.4.3: Hyperparametric analysis",
			Header: []string{"Knob", "P_Node MAPE(%)", "P_CPU MAPE(%)"},
			Notes: []string{
				"shape target: small networks win; the paper's best is two LSTM layers, here one layer is best",
				"and is the shipped default; hidden=8 is the next cheaper candidate; modest SRR width suffices"},
		}, false, nil, []field{mape}, column{targetNode, unseenApps}, column{targetCPU, unseenApps})}
	})
}

// Row names of the §6.4.6 probe.
const (
	jitterClean    = "clean (fixed interval)"
	jitterJittered = "jittered timestamps"
	jitterDropped  = "every 3rd reading dropped"
)

// RunJitter reproduces the §6.4.6 limitation: when the miss_interval
// fluctuates (network congestion) or readings drop, DynamicTRR's windows no
// longer contain exactly one measurement and accuracy degrades.
func RunJitter(ws *Workspace) (*Comparison, error) {
	t, err := ws.firstUnseen()
	if err != nil {
		return nil, err
	}
	// One model replays the test set three times, in row order: each Run
	// fine-tunes it, so the later rows are scored on the model the earlier
	// replays left behind. The served model replays the clean readings last,
	// on its own.
	dyn, err := core.FitDynamicTRR(t.train, t.opts.Dynamic)
	if err != nil {
		return nil, err
	}
	replay := func(name string, readings []int) method {
		return restorer(name, func(t *trial) ([]float64, error) { return dyn.Run(t.test, readings, nil) })
	}

	// Jitter: wobble each measurement index by ±40% of the interval.
	// Drops: lose every third reading.
	var jit, dropped []int
	for k, i := range t.idx {
		j := min(max(i+(k%3-1)*t.cfg.MissInterval*2/5, 0), t.test.Len()-1)
		if k > 0 && j <= jit[k-1] {
			j = jit[k-1] + 1
		}
		jit = append(jit, j)
		if k%3 != 2 {
			dropped = append(dropped, i)
		}
	}
	ms := []method{replay(jitterClean, t.idx), replay(jitterJittered, jit), replay(jitterDropped, dropped), dynamicServed}
	return t.variants(ms, func(c *Comparison) []*Table {
		return []*Table{c.rows(&Table{
			ID:     "jitter",
			Title:  "§6.4.6: DynamicTRR robustness to fluctuating miss_interval",
			Header: []string{"Sensor behaviour", "MAPE(%)", "RMSE", "MAE"},
			Notes: []string{
				"shape target: readings that move or vanish degrade accuracy (paper §6.4.6);",
				"the as-served row is the clean readings on the model core.Monitor serves, never fine-tuned online"},
		}, false, nil, triple, column{own, unseenApps})}
	})
}

// Row names of the design ablations.
const (
	ablStaticFull    = "StaticTRR (full, Algorithm 1)"
	ablStaticNoPost  = "StaticTRR w/o post-processing"
	ablDynamicFull   = "DynamicTRR (P'_Node feature)"
	ablDynamicNoNode = "DynamicTRR w/o P'_Node"
	ablActive        = "SRR P_CPU with active learning"
	ablNoActive      = "SRR P_CPU w/o active learning"
	ablAR            = "AR(5) extrapolation"
)

// RunAblations evaluates the design-choice ablations DESIGN.md calls out on
// the first unseen split. They are not paper artifacts; they justify
// HighRPM's structure on this reproduction: StaticTRR without Algorithm 1
// (raw spline+residual sum), DynamicTRR without the P'_Node input feature
// (PMC-only LSTM windows), the framework without the active-learning stage,
// and pure AR extrapolation in place of the TRR models.
func RunAblations(ws *Workspace) (*Comparison, error) {
	t, err := ws.firstUnseen()
	if err != nil {
		return nil, err
	}
	ms := []method{
		restorer(ablStaticFull, (*trial).restore),
		restorer(ablStaticNoPost, func(t *trial) ([]float64, error) {
			st, err := t.staticTRR()
			if err != nil {
				return nil, err
			}
			raw, err := core.SplineOnly(t.test, t.idx, nil)
			if err != nil {
				return nil, err
			}
			for i := range raw {
				raw[i] += st.Res.Predict(t.test.Samples[i].PMC)
			}
			return raw, nil
		}),
		{ablDynamicFull, "TRR", nodeOnly, dynamicTRR.eval},
		{ablDynamicNoNode, "TRR", nodeOnly, func(t *trial, tgt target) (stats.Metrics, error) {
			// The same LSTM on PMC-only windows; measured points would be
			// available in deployment either way.
			net := neural.NewLSTM(t.opts.Dynamic.Hidden, t.opts.Dynamic.Layers, t.cfg.Seed+5)
			net.Epochs = t.cfg.RNNEpochs
			return t.pmcOnlySeq(net, tgt, t.idx)
		}},
		activeLearning(ablActive, true),
		activeLearning(ablNoActive, false),
		restorer(ablAR, arBetweenReadings),
	}
	return t.variants(ms, func(c *Comparison) []*Table {
		return []*Table{c.rows(&Table{
			ID:     "ablation",
			Title:  "Design ablations (node power unless noted; unseen split)",
			Header: []string{"Variant", "MAPE(%)", "RMSE", "MAE"},
			Notes: []string{
				"expected: Algorithm 1 and the P'_Node feature each reduce error;",
				"AR tracks the long-term trend about as well as the spline but, like it, is blind to in-gap",
				"fluctuations — the counter-driven residual/LSTM components are what capture those (§4.2.1)"},
		}, false, nil, triple, column{own, unseenApps})}
	})
}

// activeLearning trains the full framework with or without the §4.1 second
// stage and scores SRR's P_CPU on the restored node feature, the path
// active learning specifically tunes.
func activeLearning(name string, active bool) method {
	return method{name, "SRR", []target{targetCPU}, func(t *trial, tgt target) (stats.Metrics, error) {
		opts := t.opts
		opts.ActiveLearning = active
		h, err := core.Train(t.train, opts)
		if err != nil {
			return stats.Metrics{}, err
		}
		// Active learning leaves h.Static as fitted: the trial's restoration
		// is the one it would produce.
		restored, err := t.restore()
		if err != nil {
			return stats.Metrics{}, err
		}
		cpu, _ := h.SRR.Evaluate(t.test, restored)
		return cpu, nil
	}}
}

// arBetweenReadings forecasts each gap with an AR(5) fitted on the training
// set's IM readings, the pure time-series baseline of §4.2.1.
func arBetweenReadings(t *trial) ([]float64, error) {
	var hist []float64
	for _, i := range t.train.MeasuredIndices(t.cfg.MissInterval) {
		hist = append(hist, t.train.Samples[i].PNode)
	}
	ar := interp.NewAR(5)
	if err := ar.Fit(hist); err != nil {
		return nil, err
	}
	truth := t.test.NodePower()
	pred := append([]float64(nil), truth...)
	var seen []float64
	for k, i := range t.idx {
		seen = append(seen, truth[i])
		end := t.test.Len()
		if k+1 < len(t.idx) {
			end = t.idx[k+1]
		}
		if gap := end - i - 1; gap > 0 {
			copy(pred[i+1:end], ar.Forecast(seen, gap))
		}
	}
	return pred, nil
}
