// Package model defines the contracts shared by every regression model in
// the repository — the 12 baselines of Table 4 and the HighRPM networks —
// together with the feature standardization the paper's methodology
// requires.
package model

import (
	"fmt"
	"math"

	"highrpm/internal/mat"
)

// Regressor is a single-output regression model mapping a feature vector to
// a scalar target (a power reading in watts).
type Regressor interface {
	// Fit trains the model on the rows of x against targets y.
	Fit(x *mat.Dense, y []float64) error
	// Predict evaluates the model on one feature vector.
	Predict(features []float64) float64
}

// SeqRegressor is a sequence-to-sequence regression model. DynamicTRR feeds
// windows of miss_interval consecutive samples and reads back the power at
// each step (§4.2.2, Fig. 4).
type SeqRegressor interface {
	// FitSeq trains on sequences; seqs[i] is a window of feature vectors
	// and targets[i] the per-step labels of the same length.
	FitSeq(seqs [][][]float64, targets [][]float64) error
	// PredictSeq returns one prediction per step of the window.
	PredictSeq(window [][]float64) []float64
}

// PredictBatch evaluates r on every row of x.
func PredictBatch(r Regressor, x *mat.Dense) []float64 {
	out := make([]float64, x.Rows())
	for i := range out {
		out[i] = r.Predict(x.Row(i))
	}
	return out
}

// StandardScaler standardizes features to zero mean and unit variance,
// column by column. Columns with zero variance pass through unscaled.
type StandardScaler struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

// FitScaler computes per-column statistics of x.
func FitScaler(x *mat.Dense) *StandardScaler {
	_, c := x.Dims()
	s := &StandardScaler{Mean: make([]float64, c), Std: make([]float64, c)}
	for j := 0; j < c; j++ {
		col := x.Col(j)
		s.Mean[j] = mat.Mean(col)
		v := mat.Variance(col)
		if v <= 0 {
			s.Std[j] = 1
		} else {
			s.Std[j] = math.Sqrt(v)
		}
	}
	return s
}

// Transform returns a standardized copy of x.
func (s *StandardScaler) Transform(x *mat.Dense) *mat.Dense {
	r, c := x.Dims()
	if c != len(s.Mean) {
		panic(fmt.Sprintf("model: scaler fitted on %d columns, got %d", len(s.Mean), c))
	}
	out := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		row := x.Row(i)
		orow := out.Row(i)
		for j := 0; j < c; j++ {
			orow[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
	return out
}

// TransformRow standardizes a single feature vector.
func (s *StandardScaler) TransformRow(row []float64) []float64 {
	if len(row) != len(s.Mean) {
		panic(fmt.Sprintf("model: scaler fitted on %d columns, got %d", len(s.Mean), len(row)))
	}
	out := make([]float64, len(row))
	for j := range row {
		out[j] = (row[j] - s.Mean[j]) / s.Std[j]
	}
	return out
}

// ScaledRegressor wraps a Regressor with input standardization so callers
// can feed raw PMC counts without worrying about scale.
type ScaledRegressor struct {
	Inner  Regressor
	Scaler *StandardScaler
}

// Fit standardizes x, remembers the statistics, and fits the inner model.
func (s *ScaledRegressor) Fit(x *mat.Dense, y []float64) error {
	s.Scaler = FitScaler(x)
	return s.Inner.Fit(s.Scaler.Transform(x), y)
}

// Predict standardizes the feature vector and delegates to the inner model.
func (s *ScaledRegressor) Predict(features []float64) float64 {
	return s.Inner.Predict(s.Scaler.TransformRow(features))
}

// Subset extracts the given rows of x and entries of y.
func Subset(x *mat.Dense, y []float64, rows []int) (*mat.Dense, []float64) {
	_, c := x.Dims()
	sx := mat.NewDense(len(rows), c)
	var sy []float64
	if y != nil {
		sy = make([]float64, len(rows))
	}
	for i, r := range rows {
		copy(sx.Row(i), x.Row(r))
		if y != nil {
			sy[i] = y[r]
		}
	}
	return sx, sy
}
