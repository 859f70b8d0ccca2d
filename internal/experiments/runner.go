package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// registry is the one list of experiments, in presentation order
// (motivation figures first, then the evaluation tables, then discussion
// artifacts).
var registry = []struct {
	id, desc string
	run      func(ws *Workspace) ([]*Table, error)
}{
	{"fig1", "Graph500 power capping under PI/AI sweeps (motivation)",
		func(ws *Workspace) ([]*Table, error) { return tables(RunFig1(ws.Config())) }},
	{"fig2", "FFT vs Stream component power divergence (motivation)",
		func(ws *Workspace) ([]*Table, error) { return tables(RunFig2(ws.Config())) }},
	{"tab5", "TRR vs 12 baselines on node power (with tab6)",
		func(ws *Workspace) ([]*Table, error) { return tables(RunTRRComparison(ws)) }},
	{"tab7", "SRR vs 12 baselines on component power (with tab8)",
		func(ws *Workspace) ([]*Table, error) { return tables(RunSRRComparison(ws)) }},
	{"tab9", "Full method on the x86/RAPL platform, unseen apps",
		func(ws *Workspace) ([]*Table, error) { return tables(RunX86(ws.Config())) }},
	{"fig7", "miss_interval sweep: spline vs StaticTRR",
		func(ws *Workspace) ([]*Table, error) { return tables(RunFig7(ws)) }},
	{"fig8", "miss_interval sensitivity of HighRPM",
		func(ws *Workspace) ([]*Table, error) { return tables(RunFig8(ws)) }},
	{"fig9", "CPU frequency sensitivity on Graph500",
		func(ws *Workspace) ([]*Table, error) { return tables(RunFig9(ws.Config())) }},
	{"hyper", "§6.4.3 hyperparametric analysis",
		func(ws *Workspace) ([]*Table, error) { return tables(RunHyper(ws)) }},
	{"overhead", "§6.4.5 training and prediction overhead",
		func(ws *Workspace) ([]*Table, error) { return tables(RunOverhead(ws)) }},
	{"jitter", "§6.4.6 robustness to fluctuating miss_interval",
		func(ws *Workspace) ([]*Table, error) { return tables(RunJitter(ws)) }},
	{"ablation", "design-choice ablations (Algorithm 1, P'_Node feature, active learning, AR)",
		func(ws *Workspace) ([]*Table, error) { return tables(RunAblations(ws)) }},
	{"gpu", "§6.4.4 extension: GPU power restoration",
		func(ws *Workspace) ([]*Table, error) { return tables(RunGPU(ws.Config())) }},
	{"dvfs", "deployment: one mixed-frequency model vs per-level training",
		func(ws *Workspace) ([]*Table, error) { return tables(RunDVFS(ws.Config())) }},
	{"governor", "power-capping control stacks driven by HighRPM vs raw IM",
		func(ws *Workspace) ([]*Table, error) { return tables(RunGovernor(ws.Config())) }},
}

// tables renders an experiment's result unless it failed.
func tables(r interface{ Tables() []*Table }, err error) ([]*Table, error) {
	if err != nil {
		return nil, err
	}
	return r.Tables(), nil
}

// DefaultOrder lists all experiments in presentation order.
func DefaultOrder() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// IDs returns the experiment identifiers sorted by name.
func IDs() []string {
	out := DefaultOrder()
	sort.Strings(out)
	return out
}

// Describe returns a one-line description of an experiment ("" for an
// unknown one).
func Describe(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.desc
		}
	}
	return ""
}

// Run executes one experiment against a shared workspace.
func Run(ws *Workspace, id string) ([]*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(ws)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// RunAndRenderParallel executes independent experiments concurrently, at
// most parallel at a time (at least one), and renders each experiment's
// tables in the order the ids were given. Experiments share the workspace's
// split cache, which is safe for concurrent use; a failed experiment does
// not stop the others, and the first error in id order is returned.
func RunAndRenderParallel(ws *Workspace, ids []string, w io.Writer, parallel int) error {
	type result struct {
		tables []*Table
		err    error
	}
	results := make([]result, len(ids))
	sem := make(chan struct{}, max(parallel, 1))
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
