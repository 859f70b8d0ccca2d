package experiments

import (
	"fmt"

	"highrpm/internal/platform"
	"highrpm/internal/stats"
)

// Comparison is a list of methods and their scores: averaged over the
// Table 3 combinations (Tables 5–9), or on one trial (the ablations).
type Comparison struct {
	Scores
	methods []method
	render  func(*Comparison) []*Table
}

// Tables renders the comparison's artifacts.
func (c *Comparison) Tables() []*Table { return c.render(c) }

// compare scores the methods on every combination's seen and unseen split
// and averages each (method, target, seen) cell over the combinations.
func compare(ws *Workspace, ms []method, render func(*Comparison) []*Table) (*Comparison, error) {
	cfg := ws.Config()
	acc := map[cell][]stats.Metrics{}
	for _, combo := range cfg.combos() {
		for _, seen := range cfg.seenVariants() {
			t, err := ws.trial(combo, seen)
			if err != nil {
				return nil, err
			}
			scores, err := t.evaluate(ms)
			if err != nil {
				return nil, fmt.Errorf("experiments: combo %s seen=%v: %w", combo.TestSuite, seen, err)
			}
			for c, m := range scores {
				acc[c] = append(acc[c], m)
			}
		}
	}
	avg := Scores{}
	for c, per := range acc {
		avg[c] = stats.Average(per)
	}
	return &Comparison{Scores: avg, methods: ms, render: render}, nil
}

// variants scores the methods on one trial: the rows are variations of a
// design on the same data.
func (t *trial) variants(ms []method, render func(*Comparison) []*Table) (*Comparison, error) {
	scores, err := t.evaluate(ms)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Comparison{Scores: scores, methods: ms, render: render}, nil
}

// field picks one error measure out of a score.
type field func(stats.Metrics) float64

func mape(m stats.Metrics) float64 { return m.MAPE }
func rmse(m stats.Metrics) float64 { return m.RMSE }
func mae(m stats.Metrics) float64  { return m.MAE }

// triple is the MAPE / RMSE / MAE group most tables print per column.
var triple = []field{mape, rmse, mae}

// cells formats the chosen fields of a score, "-" for a score that was not
// computed (a config that evaluates only unseen splits, a method without
// that target).
func cells(m stats.Metrics, fields []field) []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = "-"
		if m.N > 0 {
			out[i] = f2(f(m))
		}
	}
	return out
}

// column is one group of cells in a method-per-row table.
type column struct {
	tgt  target
	seen bool
}

// own stands for the single target of the row's method, in tables whose
// rows do not share one.
const own target = -1

const (
	seenApps   = true
	unseenApps = false
)

// rows appends one row per method (those keep accepts; nil keeps all): the
// name, preceded by the type when typed, then the fields of its score in
// each column.
func (c *Comparison) rows(t *Table, typed bool, keep func(method) bool, fields []field, cols ...column) *Table {
	for _, m := range c.methods {
		if keep != nil && !keep(m) {
			continue
		}
		row := []string{m.name}
		if typed {
			row = []string{m.typ, m.name}
		}
		for _, col := range cols {
			if col.tgt == own {
				col.tgt = m.targets[0]
			}
			row = append(row, cells(c.At(m.name, col.tgt, col.seen), fields)...)
		}
		t.AddRow(row...)
	}
	return t
}

// RunTRRComparison evaluates the twelve baselines and the TRR models on
// node-power restoration (Tables 5 and 6), the DynamicTRR the service runs
// included.
func RunTRRComparison(ws *Workspace) (*Comparison, error) {
	return compare(ws, append(paperMethods(targetNode), dynamicServed), func(c *Comparison) []*Table {
		node := []column{{targetNode, seenApps}, {targetNode, unseenApps}}
		return []*Table{
			c.rows(&Table{
				ID:     "tab5",
				Title:  "Table 5: Comparisons between TRR and alternative models (node power)",
				Header: []string{"Type", "Model", "Seen MAPE(%)", "Seen RMSE", "Seen MAE", "Unseen MAPE(%)", "Unseen RMSE", "Unseen MAE"},
				Notes:  []string{"shape target: DynamicTRR MAPE below every baseline; linear models cluster together; RNNs beat static ML"},
			}, true, func(m method) bool { return m.name != spline.name && m.name != staticTRR.name }, triple, node...),
			c.rows(&Table{
				ID:     "tab6",
				Title:  "Table 6: Comparisons among TRR models (node power)",
				Header: []string{"Model", "Seen MAPE(%)", "Seen RMSE", "Seen MAE", "Unseen MAPE(%)", "Unseen RMSE", "Unseen MAE"},
				Notes:  []string{"shape target: spline ≤ StaticTRR ≤ DynamicTRR, all far below the PMC-only baselines of Table 5"},
			}, false, func(m method) bool { return m.typ == "TRR" }, triple, node...),
		}
	})
}

// RunSRRComparison evaluates the baselines and SRR on CPU and memory power
// (Tables 7 and 8). SRR's node-power input on the test set is the StaticTRR
// restoration — the value actually available in deployment — closing the
// full bi-directional pipeline.
func RunSRRComparison(ws *Workspace) (*Comparison, error) {
	ms := append(paperMethods(targetCPU, targetMEM), srrNoNode)
	return compare(ws, ms, func(c *Comparison) []*Table {
		t8 := &Table{
			ID:     "tab8",
			Title:  "Table 8: SRR with vs without P_Node as a feature",
			Header: []string{"Split", "Target", "With MAPE(%)", "With RMSE", "With MAE", "Without MAPE(%)", "Without RMSE", "Without MAE"},
			Notes:  []string{"shape target: removing P_Node multiplies MAPE several-fold (paper: ~4x for P_CPU seen)"},
		}
		split := map[bool]string{seenApps: "seen app.", unseenApps: "unseen app."}
		label := map[target]string{targetCPU: "P_CPU", targetMEM: "P_MEM"}
		for _, seen := range []bool{seenApps, unseenApps} {
			for _, tgt := range components {
				row := []string{split[seen], label[tgt]}
				for _, m := range []method{srr, srrNoNode} {
					row = append(row, cells(c.At(m.name, tgt, seen), triple)...)
				}
				t8.AddRow(row...)
			}
		}
		return []*Table{
			c.rows(&Table{
				ID:    "tab7",
				Title: "Table 7: Comparisons between SRR and alternative models (component power)",
				Header: []string{"Type", "Model",
					"Seen CPU MAPE(%)", "Seen CPU RMSE", "Seen CPU MAE",
					"Seen MEM MAPE(%)", "Seen MEM RMSE", "Seen MEM MAE",
					"Unseen CPU MAPE(%)", "Unseen CPU RMSE", "Unseen CPU MAE",
					"Unseen MEM MAPE(%)", "Unseen MEM RMSE", "Unseen MEM MAE"},
				Notes: []string{"shape target: SRR lowest everywhere; unseen P_MEM MAPE degrades but MAE stays within ~2 W (paper §6.2.2)"},
			}, true, func(m method) bool { return m.name != srrNoNode.name }, triple,
				column{targetCPU, seenApps}, column{targetMEM, seenApps}, column{targetCPU, unseenApps}, column{targetMEM, unseenApps}),
			t8,
		}
	})
}

// RunX86 reproduces the §6.3 experiment (Table 9): HighRPM applied to the
// x86 platform, where RAPL supplies accurate 1 Sa/s readings and the
// evaluation deliberately sparsifies them to a 10 s miss_interval. In the
// simulator this is the x86 node model with the same sparsification,
// evaluated on unseen applications exactly as Table 9 reports.
func RunX86(cfg Config) (*Comparison, error) {
	cfg.Platform = platform.X86Config()
	cfg.UnseenOnly = true
	return compare(NewWorkspace(cfg), paperMethods(targetNode, targetCPU, targetMEM), func(c *Comparison) []*Table {
		return []*Table{c.rows(&Table{
			ID:    "tab9",
			Title: "Table 9: HighRPM on unseen applications on the x86 system",
			Header: []string{"Type", "Model",
				"PNode MAPE(%)", "PNode RMSE", "PNode MAE",
				"PCPU MAPE(%)", "PCPU RMSE", "PCPU MAE",
				"PMEM MAPE(%)", "PMEM RMSE", "PMEM MAE"},
			Notes: []string{"shape target: same orderings as Tables 5/7 with slightly higher errors than the ARM platform (§6.3)"},
		}, true, nil, triple, column{targetNode, unseenApps}, column{targetCPU, unseenApps}, column{targetMEM, unseenApps})}
	})
}
