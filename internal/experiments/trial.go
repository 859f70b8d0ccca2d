package experiments

import (
	"fmt"
	"slices"

	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/model"
	"highrpm/internal/stats"
)

// target selects a prediction label.
type target int

const (
	targetNode target = iota
	targetCPU
	targetMEM
)

func (t target) labels(s *dataset.Set) []float64 {
	switch t {
	case targetCPU:
		return s.CPUPower()
	case targetMEM:
		return s.MemPower()
	default:
		return s.NodePower()
	}
}

// trial is one training set and one test set under evaluation with one set
// of HighRPM options: the question every accuracy table asks — how well does
// a method restore a target here — is answered by its methods. Training is
// deterministic, so what several methods share (the StaticTRR restoration
// feeds the StaticTRR row and is SRR's node feature) is fitted once and
// equals a refit bit for bit. A trial is used by one goroutine.
type trial struct {
	cfg         Config
	opts        core.Options
	train, test *dataset.Set
	seen        bool
	// idx are the test samples that carry an IM reading.
	idx []int

	// Fitted on the training set, once.
	static *core.StaticTRR
	srrs   map[core.SRROptions]*core.SRR
	// restored is StaticTRR's restoration of the current test set.
	restored []float64
}

// newTrial prepares a trial on a training set; on gives it the test set.
func newTrial(cfg Config, opts core.Options, train *dataset.Set, seen bool) *trial {
	return &trial{cfg: cfg, opts: opts, train: train, seen: seen, srrs: map[core.SRROptions]*core.SRR{}}
}

// on points the trial at a test set, keeping the models fitted so far.
func (t *trial) on(test *dataset.Set) *trial {
	t.test, t.idx, t.restored = test, test.MeasuredIndices(t.opts.Static.MissInterval), nil
	return t
}

// staticTRR fits StaticTRR on the training set, once.
func (t *trial) staticTRR() (*core.StaticTRR, error) {
	if t.static == nil {
		st, err := core.FitStaticTRR(t.train, t.opts.Static)
		if err != nil {
			return nil, err
		}
		t.static = st
	}
	return t.static, nil
}

// restore is StaticTRR's restoration of the test set's node power — the
// value available in deployment, and so SRR's node feature.
func (t *trial) restore() ([]float64, error) {
	if t.restored == nil {
		st, err := t.staticTRR()
		if err != nil {
			return nil, err
		}
		if t.restored, err = st.Restore(t.test, t.idx, nil); err != nil {
			return nil, err
		}
	}
	return t.restored, nil
}

// dynamic fits a DynamicTRR and scores its online restoration of the test
// set. The model is never memoised: Run fine-tunes it, so every evaluation
// needs its own.
func (t *trial) dynamic(o core.DynamicTRROptions) (stats.Metrics, error) {
	d, err := core.FitDynamicTRR(t.train, o)
	if err != nil {
		return stats.Metrics{}, err
	}
	return d.Evaluate(t.test)
}

// srr fits SRR (once per option set) and scores one component on the test
// set with the StaticTRR restoration as the node feature, which a model
// fitted without one ignores.
func (t *trial) srr(o core.SRROptions, tgt target) (stats.Metrics, error) {
	s := t.srrs[o]
	if s == nil {
		var err error
		if s, err = core.FitSRR(t.train, nil, o); err != nil {
			return stats.Metrics{}, err
		}
		t.srrs[o] = s
	}
	node, err := t.restore()
	if err != nil {
		return stats.Metrics{}, err
	}
	cpu, mem := s.Evaluate(t.test, node)
	if tgt == targetMEM {
		return mem, nil
	}
	return cpu, nil
}

// baseline fits a Table 4 model PMC→target and scores it on the test set.
// The baselines see only PMCs — they are the "software-centric power
// modeling" side of the comparison and never get node-power readings; the
// sequence models predict one step ahead from PMC-only windows.
func (t *trial) baseline(b Baseline, tgt target) (stats.Metrics, error) {
	if b.New != nil {
		m := b.New(t.cfg.Seed)
		if err := m.Fit(t.train.PMCMatrix(), tgt.labels(t.train)); err != nil {
			return stats.Metrics{}, err
		}
		return stats.Evaluate(tgt.labels(t.test), model.PredictBatch(m, t.test.PMCMatrix())), nil
	}
	return t.pmcOnlySeq(b.NewSeq(t.cfg, t.cfg.Seed), tgt, nil)
}

// pmcOnlySeq trains a sequence model on PMC-only windows of the training set
// and scores its one-step-ahead predictions; known overrides the prediction
// at the given test indices with ground truth.
func (t *trial) pmcOnlySeq(m model.SeqRegressor, tgt target, known []int) (stats.Metrics, error) {
	miss := t.cfg.MissInterval
	wins := dataset.SubsampleWindows(pmcWindows(t.train, tgt, miss), t.cfg.RNNMaxWindows)
	if err := m.FitSeq(dataset.WindowsToSeqs(wins)); err != nil {
		return stats.Metrics{}, err
	}
	truth := tgt.labels(t.test)
	pred := make([]float64, t.test.Len())
	for i := range pred {
		out := m.PredictSeq(pmcWindowAt(t.test, i, miss))
		pred[i] = out[len(out)-1]
	}
	for _, i := range known {
		pred[i] = truth[i]
	}
	return stats.Evaluate(truth, pred), nil
}

// method is one row of an accuracy table: something that restores some of
// the targets on a trial.
type method struct {
	name, typ string
	targets   []target
	eval      func(t *trial, tgt target) (stats.Metrics, error)
}

var (
	nodeOnly   = []target{targetNode}
	components = []target{targetCPU, targetMEM}
)

// restorer is a node-power method that estimates the whole test series.
func restorer(name string, estimate func(*trial) ([]float64, error)) method {
	return method{name, "TRR", nodeOnly, func(t *trial, tgt target) (stats.Metrics, error) {
		est, err := estimate(t)
		if err != nil {
			return stats.Metrics{}, err
		}
		return stats.Evaluate(tgt.labels(t.test), est), nil
	}}
}

// The paper's own methods, reading their options from the trial.
var (
	spline = restorer("Spline", func(t *trial) ([]float64, error) {
		return core.SplineOnly(t.test, t.idx, nil)
	})
	staticTRR  = restorer("StaticTRR", (*trial).restore)
	dynamicTRR = method{"DynamicTRR", "TRR", nodeOnly, func(t *trial, _ target) (stats.Metrics, error) {
		return t.dynamic(t.opts.Dynamic)
	}}
	// dynamicServed is the DynamicTRR core.Monitor serves: core.Train's,
	// refreshed by active learning, and never fine-tuned online.
	dynamicServed = method{"DynamicTRR (as served)", "TRR", nodeOnly, func(t *trial, _ target) (stats.Metrics, error) {
		h, err := core.Train(t.train, t.opts)
		if err != nil {
			return stats.Metrics{}, err
		}
		h.Dynamic.Opts.FineTuneOnline = false
		return h.Dynamic.Evaluate(t.test)
	}}
	srr = method{"SRR", "SRR", components, func(t *trial, tgt target) (stats.Metrics, error) {
		return t.srr(t.opts.SRR, tgt)
	}}
	// srrNoNode is the Table 8 ablation: the same MLP without P_Node.
	srrNoNode = method{"SRR w/o P_Node", "SRR", components, func(t *trial, tgt target) (stats.Metrics, error) {
		o := t.opts.SRR
		o.UseNode = false
		return t.srr(o, tgt)
	}}
)

// paperMethods lists the Table 5–9 rows — the twelve baselines, then the
// TRR family, then SRR — that restore any of the given targets, restricted
// to those targets.
func paperMethods(tgts ...target) []method {
	var all []method
	for _, b := range Baselines() {
		all = append(all, method{b.Name, b.Type, []target{targetNode, targetCPU, targetMEM},
			func(t *trial, tgt target) (stats.Metrics, error) { return t.baseline(b, tgt) }})
	}
	all = append(all, spline, staticTRR, dynamicTRR, srr)
	var out []method
	for _, m := range all {
		var keep []target
		for _, tgt := range m.targets {
			if slices.Contains(tgts, tgt) {
				keep = append(keep, tgt)
			}
		}
		if len(keep) > 0 {
			m.targets = keep
			out = append(out, m)
		}
	}
	return out
}

// cell names one score: a method's error on a target of a seen or unseen
// split.
type cell struct {
	method string
	tgt    target
	seen   bool
}

// Scores holds the errors of one trial, or their average over several.
type Scores map[cell]stats.Metrics

// At returns a method's score (the zero Metrics, N == 0, when it has none).
func (s Scores) At(method string, tgt target, seen bool) stats.Metrics {
	return s[cell{method, tgt, seen}]
}

// evaluate scores every method on each of its targets.
func (t *trial) evaluate(ms []method) (Scores, error) {
	out := Scores{}
	for _, m := range ms {
		for _, tgt := range m.targets {
			v, err := m.eval(t, tgt)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.name, err)
			}
			out[cell{m.name, tgt, t.seen}] = v
		}
	}
	return out, nil
}
