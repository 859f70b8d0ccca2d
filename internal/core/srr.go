package core

import (
	"fmt"

	"highrpm/internal/dataset"
	"highrpm/internal/mat"
	"highrpm/internal/neural"
	"highrpm/internal/stats"
)

// SRROptions configures the spatial restoration model.
type SRROptions struct {
	// Hidden is the width of the single hidden layer (§4.3: a shallow MLP;
	// §6.4.3 found deeper nets dilute the node-power signal).
	Hidden int
	// Epochs bounds training cost.
	Epochs int
	// UseNode includes P_Node as an input feature; disabling it reproduces
	// the Table 8 ablation.
	UseNode bool
	Seed    int64
}

// DefaultSRROptions returns the §6.2 configuration.
func DefaultSRROptions() SRROptions {
	return SRROptions{Hidden: 32, Epochs: 60, UseNode: true, Seed: 23}
}

func (o *SRROptions) fill() {
	if o.Hidden <= 0 {
		o.Hidden = 32
	}
	if o.Epochs <= 0 {
		o.Epochs = 60
	}
}

// SRR distributes node-level power to the CPU and memory components with a
// shallow MLP whose inputs are the PMCs plus the node power estimated by
// the TRR models, closing the paper's bi-directional modeling loop
// (Fig. 5c).
type SRR struct {
	Opts SRROptions
	Net  *neural.MLP
}

// FitSRR trains the MLP on a labeled set. nodeFeature supplies the
// node-power input per sample — ground truth during the initial learning
// stage, TRR estimates during active learning; nil uses the set's own
// (measured) node power. When Opts.UseNode is false the feature is omitted
// entirely (Table 8's "without P_Node" column).
func FitSRR(train *dataset.Set, nodeFeature []float64, opts SRROptions) (*SRR, error) {
	opts.fill()
	if train.Len() == 0 {
		return nil, fmt.Errorf("core: SRR training set is empty")
	}
	s := &SRR{Opts: opts}
	x := s.features(train, nodeFeature)
	y := mat.NewDense(train.Len(), 2)
	for i, sm := range train.Samples {
		y.Set(i, 0, sm.PCPU)
		y.Set(i, 1, sm.PMEM)
	}
	net := neural.NewMLP([]int{opts.Hidden}, 2, opts.Seed)
	net.Epochs = opts.Epochs
	if err := net.FitMulti(x, y); err != nil {
		return nil, fmt.Errorf("core: SRR fit: %w", err)
	}
	s.Net = net
	return s, nil
}

func (s *SRR) features(set *dataset.Set, nodeFeature []float64) *mat.Dense {
	if !s.Opts.UseNode {
		return set.PMCMatrix()
	}
	if nodeFeature == nil {
		nodeFeature = set.NodePower()
	}
	return set.PMCWithNode(nodeFeature)
}

// Predict splits one sample's node power into (P_CPU, P_MEM). pnode is
// ignored when the model was trained without the node feature.
func (s *SRR) Predict(pmcs []float64, pnode float64) (pcpu, pmem float64) {
	var scratch []float64
	if s.Opts.UseNode {
		scratch = make([]float64, len(pmcs)+1)
	}
	return s.predictInto(scratch, pmcs, pnode)
}

// predictInto is Predict with the network input assembled in scratch — at
// least len(pmcs)+1 long when the model takes the node feature, unused
// otherwise — so a per-sample caller that owns the buffer (Monitor)
// allocates nothing.
func (s *SRR) predictInto(scratch, pmcs []float64, pnode float64) (pcpu, pmem float64) {
	if s.Net == nil {
		panic("core: SRR is not fitted")
	}
	in := pmcs
	if s.Opts.UseNode {
		in = scratch[:len(pmcs)+1]
		copy(in, pmcs)
		in[len(pmcs)] = pnode
	}
	var out [2]float64
	s.Net.PredictInto(out[:], in)
	return out[0], out[1]
}

// PredictSet splits every sample of the set using nodePower as the node
// feature (nil uses the set's measured node power).
func (s *SRR) PredictSet(set *dataset.Set, nodePower []float64) (pcpu, pmem []float64) {
	if nodePower == nil {
		nodePower = set.NodePower()
	}
	pcpu = make([]float64, set.Len())
	pmem = make([]float64, set.Len())
	for i, sm := range set.Samples {
		pcpu[i], pmem[i] = s.Predict(sm.PMC, nodePower[i])
	}
	return pcpu, pmem
}

// FineTune runs additional epochs on reinforcement samples whose node
// feature comes from TRR estimates (the §4.1 active-learning stage).
func (s *SRR) FineTune(set *dataset.Set, nodeFeature []float64, epochs int) error {
	if s.Net == nil {
		return fmt.Errorf("core: FineTune before FitSRR")
	}
	if epochs <= 0 {
		epochs = 5
	}
	x := s.features(set, nodeFeature)
	y := mat.NewDense(set.Len(), 2)
	for i, sm := range set.Samples {
		y.Set(i, 0, sm.PCPU)
		y.Set(i, 1, sm.PMEM)
	}
	return s.Net.TrainMore(x, y, epochs)
}

// Evaluate scores component predictions against ground truth. nodePower is
// the node feature used for prediction (nil = measured).
func (s *SRR) Evaluate(set *dataset.Set, nodePower []float64) (cpu, mem stats.Metrics) {
	pcpu, pmem := s.PredictSet(set, nodePower)
	return stats.Evaluate(set.CPUPower(), pcpu), stats.Evaluate(set.MemPower(), pmem)
}
