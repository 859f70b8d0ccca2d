package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// runnerFunc produces the tables of one experiment.
type runnerFunc func(ws *Workspace) ([]*Table, error)

// one adapts a single-table experiment over the shared workspace.
func one[R interface{ Table() *Table }](run func(*Workspace) (R, error)) runnerFunc {
	return func(ws *Workspace) ([]*Table, error) {
		r, err := run(ws)
		if err != nil {
			return nil, err
		}
		return []*Table{r.Table()}, nil
	}
}

// oneCfg is one for experiments that generate their own data from the
// configuration alone.
func oneCfg[R interface{ Table() *Table }](run func(Config) (R, error)) runnerFunc {
	return one(func(ws *Workspace) (R, error) { return run(ws.Config()) })
}

var registry = map[string]struct {
	desc string
	run  runnerFunc
}{
	"fig1": {"Graph500 power capping under PI/AI sweeps (motivation)", oneCfg(RunFig1)},
	"fig2": {"FFT vs Stream component power divergence (motivation)", oneCfg(RunFig2)},
	"tab5": {"TRR vs 12 baselines on node power (with tab6)", func(ws *Workspace) ([]*Table, error) {
		r, err := RunTRRComparison(ws)
		if err != nil {
			return nil, err
		}
		return []*Table{r.Table5(), r.Table6()}, nil
	}},
	"tab7": {"SRR vs 12 baselines on component power (with tab8)", func(ws *Workspace) ([]*Table, error) {
		r, err := RunSRRComparison(ws)
		if err != nil {
			return nil, err
		}
		return []*Table{r.Table7(), r.Table8()}, nil
	}},
	"tab9": {"Full method on the x86/RAPL platform, unseen apps", func(ws *Workspace) ([]*Table, error) {
		r, err := RunX86(ws.Config())
		if err != nil {
			return nil, err
		}
		return []*Table{r.Table9()}, nil
	}},
	"fig7":     {"miss_interval sweep: spline vs StaticTRR", one(RunFig7)},
	"fig8":     {"miss_interval sensitivity of HighRPM", one(RunFig8)},
	"fig9":     {"CPU frequency sensitivity on Graph500", oneCfg(RunFig9)},
	"hyper":    {"§6.4.3 hyperparametric analysis", one(RunHyper)},
	"overhead": {"§6.4.5 training and prediction overhead", one(RunOverhead)},
	"governor": {"power-capping control stacks driven by HighRPM vs raw IM", oneCfg(RunGovernor)},
	"dvfs":     {"deployment: one mixed-frequency model vs per-level training", oneCfg(RunDVFS)},
	"gpu":      {"§6.4.4 extension: GPU power restoration", oneCfg(RunGPU)},
	"ablation": {"design-choice ablations (Algorithm 1, P'_Node feature, active learning, AR)", one(RunAblations)},
	"jitter":   {"§6.4.6 robustness to fluctuating miss_interval", one(RunJitter)},
}

// IDs returns the experiment identifiers in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns a one-line description of an experiment.
func Describe(id string) string { return registry[id].desc }

// Run executes one experiment against a shared workspace.
func Run(ws *Workspace, id string) ([]*Table, error) {
	ent, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return ent.run(ws)
}

// RunAndRenderParallel executes independent experiments concurrently,
// bounded by parallel (≤1 runs serially, 0 is treated as 1), and renders
// each experiment's tables in the order the ids were given. Experiments
// share the workspace's split cache, which is safe for concurrent use; a
// failed experiment does not stop the ones already in flight, and the first
// error in id order is returned.
func RunAndRenderParallel(ws *Workspace, ids []string, w io.Writer, parallel int) error {
	if parallel <= 1 || len(ids) <= 1 {
		for _, id := range ids {
			tables, err := Run(ws, id)
			if err != nil {
				return fmt.Errorf("experiments: %s: %w", id, err)
			}
			for _, t := range tables {
				t.Render(w)
			}
		}
		return nil
	}
	type result struct {
		tables []*Table
		err    error
	}
	results := make([]result, len(ids))
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for k, id := range ids {
		wg.Add(1)
		go func(k int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			tables, err := Run(ws, id)
			results[k] = result{tables: tables, err: err}
		}(k, id)
	}
	wg.Wait()
	for k, id := range ids {
		if results[k].err != nil {
			return fmt.Errorf("experiments: %s: %w", id, results[k].err)
		}
		for _, t := range results[k].tables {
			t.Render(w)
		}
	}
	return nil
}

// DefaultOrder lists all experiments in presentation order (motivation
// figures first, then the evaluation tables, then discussion artifacts).
func DefaultOrder() []string {
	return []string{"fig1", "fig2", "tab5", "tab7", "tab9", "fig7", "fig8", "fig9", "hyper", "overhead", "jitter", "ablation", "gpu", "dvfs", "governor"}
}
