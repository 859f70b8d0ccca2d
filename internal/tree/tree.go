// Package tree implements the CART regression tree used both as the
// Table 4 "DT" baseline and as StaticTRR's ResModel (§4.2.1 — "we tested
// all the linear and nonlinear methods ... but found that DT worked best"),
// plus the Random Forest and Gradient Boosting ensembles built on it.
package tree

import (
	"fmt"
	"math/rand"
	"sort"

	"highrpm/internal/mat"
	"highrpm/internal/model"
)

// Node is one node of a serialised regression tree. Leaves have Feature == -1.
type Node struct {
	Feature   int     `json:"feature"`             // split feature, -1 for leaf
	Threshold float64 `json:"threshold,omitempty"` // go left when x ≤ threshold
	Left      int32   `json:"left,omitempty"`      // child indices into Nodes
	Right     int32   `json:"right,omitempty"`
	Value     float64 `json:"value"` // leaf prediction (mean of targets)
}

// Regressor is a CART regression tree minimising squared error, grown
// depth-first with variance-reduction splits.
type Regressor struct {
	MaxDepth       int `json:"max_depth"`        // 0 means unbounded
	MinSamplesLeaf int `json:"min_samples_leaf"` // defaults to 1
	// MaxFeatures limits the features considered per split; 0 means all.
	// Random Forest sets this for decorrelation.
	MaxFeatures int    `json:"max_features"`
	Seed        int64  `json:"seed"`
	Nodes       []Node `json:"nodes"`

	rng *rand.Rand
}

// NewRegressor returns a tree with scikit-like defaults
// (criterion=squared_error, unbounded depth, min_samples_leaf=1).
func NewRegressor() *Regressor { return &Regressor{MinSamplesLeaf: 1} }

// workspace carries the presorted CART state: for every feature, the
// sample indices of the current node's range sorted by that feature. The
// arrays are stable-partitioned on each split, so no node ever re-sorts —
// total work is O(n·features·depth) instead of O(n log n·features·nodes).
// A workspace is rebindable: Forest reuses one across member trees and
// GradientBoosting one across stages, so ensemble fits stop re-allocating
// O(rows·features) index state per tree.
type workspace struct {
	x *mat.Dense
	y []float64
	// sorted[j][lo:hi] holds the node's samples ordered by feature j.
	sorted [][]int32
	// scratch buffers the right-hand side during stable partitions.
	scratch []int32
	// left flags per sample index whether it goes to the left child.
	left []bool
	// keys buffers one feature column during the presort.
	keys []float64
}

// indexByKey sorts sample indices by their key (one feature column). A
// concrete sort.Interface keeps the presort allocation-free per call: unlike
// a sort.Slice closure it needs no per-invocation func value, and comparing
// through a flat key slice replaces two matrix lookups per comparison.
type indexByKey struct {
	idx []int32
	key []float64
}

func (s indexByKey) Len() int           { return len(s.idx) }
func (s indexByKey) Less(a, b int) bool { return s.key[s.idx[a]] < s.key[s.idx[b]] }
func (s indexByKey) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// bind points the workspace at a dataset and rebuilds the presorted index
// arrays, growing buffers only when the shape exceeds anything seen before.
func (ws *workspace) bind(x *mat.Dense, y []float64) {
	r, c := x.Dims()
	ws.x, ws.y = x, y
	if cap(ws.scratch) < r {
		ws.scratch = make([]int32, r)
		ws.left = make([]bool, r)
		ws.keys = make([]float64, r)
	}
	ws.scratch, ws.left, ws.keys = ws.scratch[:r], ws.left[:r], ws.keys[:r]
	for len(ws.sorted) < c {
		ws.sorted = append(ws.sorted, nil)
	}
	ws.sorted = ws.sorted[:c]
	for j := 0; j < c; j++ {
		if cap(ws.sorted[j]) < r {
			ws.sorted[j] = make([]int32, r)
		}
		idx := ws.sorted[j][:r]
		ws.sorted[j] = idx
		for i := range idx {
			idx[i] = int32(i)
			ws.keys[i] = x.At(i, j)
		}
		sort.Sort(indexByKey{idx: idx, key: ws.keys})
	}
}

// Fit grows the tree on the rows of x against targets y.
func (t *Regressor) Fit(x *mat.Dense, y []float64) error {
	r, _ := x.Dims()
	if r != len(y) {
		return fmt.Errorf("tree: %d rows vs %d targets", r, len(y))
	}
	if r == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	ws := &workspace{}
	ws.bind(x, y)
	t.fitBound(ws)
	return nil
}

// fitBound grows the tree using a workspace already bound to its dataset.
func (t *Regressor) fitBound(ws *workspace) {
	if t.MinSamplesLeaf <= 0 {
		t.MinSamplesLeaf = 1
	}
	t.rng = rand.New(rand.NewSource(t.Seed))
	t.Nodes = t.Nodes[:0]
	t.grow(ws, 0, len(ws.y), 1)
}

// grow builds the subtree over the presorted range [lo, hi) and returns its
// node index.
func (t *Regressor) grow(ws *workspace, lo, hi, depth int) int32 {
	n := hi - lo
	mean, sse := meanSSE(ws, lo, hi)
	id := int32(len(t.Nodes))
	t.Nodes = append(t.Nodes, Node{Feature: -1, Value: mean})
	if n < 2*t.MinSamplesLeaf || sse <= 1e-12 {
		return id
	}
	if t.MaxDepth > 0 && depth >= t.MaxDepth {
		return id
	}
	feat, thr, gain := t.bestSplit(ws, lo, hi, sse)
	if feat < 0 || gain <= 0 {
		return id
	}
	mid := t.partition(ws, lo, hi, feat, thr)
	if mid-lo < t.MinSamplesLeaf || hi-mid < t.MinSamplesLeaf {
		return id
	}
	left := t.grow(ws, lo, mid, depth+1)
	right := t.grow(ws, mid, hi, depth+1)
	t.Nodes[id] = Node{Feature: feat, Threshold: thr, Left: left, Right: right, Value: mean}
	return id
}

func meanSSE(ws *workspace, lo, hi int) (mean, sse float64) {
	var s float64
	for _, i := range ws.sorted[0][lo:hi] {
		s += ws.y[i]
	}
	mean = s / float64(hi-lo)
	for _, i := range ws.sorted[0][lo:hi] {
		d := ws.y[i] - mean
		sse += d * d
	}
	return mean, sse
}

// bestSplit scans candidate features for the split maximising variance
// reduction over the presorted range. The strict > keeps the first
// candidate, in feature order, attaining the maximum gain.
func (t *Regressor) bestSplit(ws *workspace, lo, hi int, parentSSE float64) (feat int, thr, gain float64) {
	_, cols := ws.x.Dims()
	features := make([]int, cols)
	for j := range features {
		features[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < cols {
		t.rng.Shuffle(cols, func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.MaxFeatures]
	}
	var sumAll, sumSqAll float64
	for _, i := range ws.sorted[0][lo:hi] {
		sumAll += ws.y[i]
		sumSqAll += ws.y[i] * ws.y[i]
	}
	feat = -1
	for _, j := range features {
		g, th := t.scanFeature(ws, lo, hi, j, parentSSE, sumAll, sumSqAll)
		if g > gain {
			gain, feat, thr = g, j, th
		}
	}
	return feat, thr, gain
}

// scanFeature evaluates every split boundary of one feature over the
// presorted range, returning the best gain (0 if no valid boundary) and its
// threshold. Within a feature the strict > keeps the first boundary
// attaining the feature's maximum gain, matching the legacy global scan.
func (t *Regressor) scanFeature(ws *workspace, lo, hi, j int, parentSSE, sumAll, sumSqAll float64) (gain, thr float64) {
	order := ws.sorted[j][lo:hi]
	n := hi - lo
	// Prefix scan: evaluate every boundary between distinct values.
	var sumL, sumSqL float64
	for k := 0; k < n-1; k++ {
		yi := ws.y[order[k]]
		sumL += yi
		sumSqL += yi * yi
		xv := ws.x.At(int(order[k]), j)
		nx := ws.x.At(int(order[k+1]), j)
		if nx <= xv {
			continue // cannot split between equal values
		}
		nl := float64(k + 1)
		nr := float64(n - k - 1)
		if int(nl) < t.MinSamplesLeaf || int(nr) < t.MinSamplesLeaf {
			continue
		}
		sseL := sumSqL - sumL*sumL/nl
		sumR := sumAll - sumL
		sseR := (sumSqAll - sumSqL) - sumR*sumR/nr
		g := parentSSE - sseL - sseR
		if g > gain {
			gain = g
			thr = 0.5 * (xv + nx)
		}
	}
	return gain, thr
}

// partition stable-partitions every feature's presorted range so left-child
// samples (x[feat] ≤ thr) precede right-child samples while each side stays
// sorted, returning the boundary index.
func (t *Regressor) partition(ws *workspace, lo, hi, feat int, thr float64) int {
	for _, i := range ws.sorted[feat][lo:hi] {
		ws.left[i] = ws.x.At(int(i), feat) <= thr
	}
	mid := lo
	for _, arr := range ws.sorted {
		seg := arr[lo:hi]
		right := ws.scratch[:0]
		w := 0
		for _, i := range seg {
			if ws.left[i] {
				seg[w] = i
				w++
			} else {
				right = append(right, i)
			}
		}
		copy(seg[w:], right)
		mid = lo + w
	}
	return mid
}

// Predict walks the tree for one feature vector.
func (t *Regressor) Predict(features []float64) float64 {
	if len(t.Nodes) == 0 {
		panic("tree: model is not fitted")
	}
	id := int32(0)
	for {
		n := t.Nodes[id]
		if n.Feature < 0 {
			return n.Value
		}
		if features[n.Feature] <= n.Threshold {
			id = n.Left
		} else {
			id = n.Right
		}
	}
}

// Forest is a bagged ensemble of regression trees (Table 4: RF, 10 trees).
type Forest struct {
	NumTrees    int          `json:"num_trees"`
	MaxDepth    int          `json:"max_depth"`
	MaxFeatures int          `json:"max_features"` // 0: ceil(cols/3), sklearn-style for regression
	Seed        int64        `json:"seed"`
	Trees       []*Regressor `json:"trees"`
}

// NewForest returns a Random Forest with the paper's 10 trees.
func NewForest(numTrees int, seed int64) *Forest {
	if numTrees <= 0 {
		numTrees = 10
	}
	return &Forest{NumTrees: numTrees, Seed: seed}
}

// Fit grows NumTrees trees on bootstrap resamples of (x, y).
func (f *Forest) Fit(x *mat.Dense, y []float64) error {
	r, c := x.Dims()
	if r != len(y) {
		return fmt.Errorf("tree: %d rows vs %d targets", r, len(y))
	}
	if r == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	maxFeat := f.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = (c + 2) / 3
		if maxFeat < 1 {
			maxFeat = 1
		}
	}
	rng := rand.New(rand.NewSource(f.Seed))
	f.Trees = make([]*Regressor, f.NumTrees)
	// One bootstrap buffer and one workspace serve every member: tree k's
	// resample and seed are drawn from the forest rng, the tree is grown
	// (from its own rng), and the buffers are overwritten for tree k+1.
	bx := mat.NewDense(r, c)
	by := make([]float64, r)
	ws := &workspace{}
	for k := range f.Trees {
		for i := 0; i < r; i++ {
			j := rng.Intn(r)
			copy(bx.Row(i), x.Row(j))
			by[i] = y[j]
		}
		t := NewRegressor()
		t.MaxDepth = f.MaxDepth
		t.MaxFeatures = maxFeat
		t.Seed = rng.Int63()
		ws.bind(bx, by)
		t.fitBound(ws)
		f.Trees[k] = t
	}
	return nil
}

// Predict averages the member trees.
func (f *Forest) Predict(features []float64) float64 {
	if len(f.Trees) == 0 {
		panic("tree: forest is not fitted")
	}
	var s float64
	for _, t := range f.Trees {
		s += t.Predict(features)
	}
	return s / float64(len(f.Trees))
}

// GradientBoosting is a squared-error gradient-boosted tree ensemble
// (Table 4: GB, 10 trees).
type GradientBoosting struct {
	NumTrees     int          `json:"num_trees"`
	LearningRate float64      `json:"learning_rate"`
	MaxDepth     int          `json:"max_depth"`
	Seed         int64        `json:"seed"`
	Base         float64      `json:"base"`
	Trees        []*Regressor `json:"trees"`
}

// NewGradientBoosting returns a GB ensemble with the paper's 10 trees and
// scikit-like defaults (learning_rate=0.1, max_depth=3).
func NewGradientBoosting(numTrees int, seed int64) *GradientBoosting {
	if numTrees <= 0 {
		numTrees = 10
	}
	return &GradientBoosting{NumTrees: numTrees, LearningRate: 0.1, MaxDepth: 3, Seed: seed}
}

// Fit builds the stage-wise ensemble on squared-error residuals.
func (g *GradientBoosting) Fit(x *mat.Dense, y []float64) error {
	r, _ := x.Dims()
	if r != len(y) {
		return fmt.Errorf("tree: %d rows vs %d targets", r, len(y))
	}
	if r == 0 {
		return fmt.Errorf("tree: empty training set")
	}
	if g.LearningRate <= 0 {
		g.LearningRate = 0.1
	}
	if g.MaxDepth <= 0 {
		g.MaxDepth = 3
	}
	g.Base = mat.Mean(y)
	resid := make([]float64, r)
	pred := make([]float64, r)
	for i := range pred {
		pred[i] = g.Base
	}
	rng := rand.New(rand.NewSource(g.Seed))
	g.Trees = make([]*Regressor, 0, g.NumTrees)
	// Every stage fits the same x, so presort once and snapshot the pristine
	// index order; later stages restore it with an O(rows·features) copy
	// instead of re-sorting.
	ws := &workspace{}
	ws.bind(x, resid)
	pristine := make([][]int32, len(ws.sorted))
	for j, s := range ws.sorted {
		pristine[j] = append([]int32(nil), s...)
	}
	for k := 0; k < g.NumTrees; k++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		if k > 0 {
			for j := range ws.sorted {
				copy(ws.sorted[j], pristine[j])
			}
		}
		t := NewRegressor()
		t.MaxDepth = g.MaxDepth
		t.MinSamplesLeaf = 2
		t.Seed = rng.Int63()
		t.fitBound(ws)
		g.Trees = append(g.Trees, t)
		for i := 0; i < r; i++ {
			pred[i] += g.LearningRate * t.Predict(x.Row(i))
		}
	}
	return nil
}

// Predict sums the stage predictions.
func (g *GradientBoosting) Predict(features []float64) float64 {
	if len(g.Trees) == 0 {
		panic("tree: boosting model is not fitted")
	}
	s := g.Base
	for _, t := range g.Trees {
		s += g.LearningRate * t.Predict(features)
	}
	return s
}

var (
	_ model.Regressor = (*Regressor)(nil)
	_ model.Regressor = (*Forest)(nil)
	_ model.Regressor = (*GradientBoosting)(nil)
)
