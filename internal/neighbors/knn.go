// Package neighbors implements the K-nearest-neighbors regression baseline
// of Table 4 (KNN, #neighbors=3, algo=auto → brute force at this scale).
package neighbors

import (
	"container/heap"
	"fmt"

	"highrpm/internal/mat"
	"highrpm/internal/model"
)

// KNN is a brute-force k-nearest-neighbors regressor over Euclidean
// distance; prediction is the mean target of the k nearest training rows.
type KNN struct {
	K int `json:"k"`
	// Training data is retained verbatim — KNN is a memory-based model.
	X [][]float64 `json:"x"`
	Y []float64   `json:"y"`
}

// NewKNN returns a KNN regressor; k defaults to 3 (the paper's setting)
// when non-positive.
func NewKNN(k int) *KNN {
	if k <= 0 {
		k = 3
	}
	return &KNN{K: k}
}

// Fit stores the training set.
func (k *KNN) Fit(x *mat.Dense, y []float64) error {
	r, _ := x.Dims()
	if r != len(y) {
		return fmt.Errorf("neighbors: %d rows vs %d targets", r, len(y))
	}
	if r < k.K {
		return fmt.Errorf("neighbors: %d rows < k=%d", r, k.K)
	}
	k.X = make([][]float64, r)
	for i := range k.X {
		k.X[i] = append([]float64(nil), x.Row(i)...)
	}
	k.Y = append([]float64(nil), y...)
	return nil
}

// neighborHeap is a max-heap over (distance, index) keeping the k smallest.
type neighborHeap []neighbor

type neighbor struct {
	dist float64
	idx  int
}

func (h neighborHeap) Len() int           { return len(h) }
func (h neighborHeap) Less(i, j int) bool { return h[i].dist > h[j].dist } // max-heap
func (h neighborHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *neighborHeap) Push(x any)        { *h = append(*h, x.(neighbor)) }
func (h *neighborHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return
}

// Predict returns the mean target over the K nearest stored rows.
func (k *KNN) Predict(features []float64) float64 {
	if len(k.X) == 0 {
		panic("neighbors: model is not fitted")
	}
	h := make(neighborHeap, 0, k.K+1)
	for i, row := range k.X {
		d := sqDist(row, features)
		if len(h) < k.K {
			heap.Push(&h, neighbor{d, i})
		} else if d < h[0].dist {
			h[0] = neighbor{d, i}
			heap.Fix(&h, 0)
		}
	}
	var s float64
	for _, nb := range h {
		s += k.Y[nb.idx]
	}
	return s / float64(len(h))
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

var _ model.Regressor = (*KNN)(nil)
