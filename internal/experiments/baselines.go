package experiments

import (
	"highrpm/internal/dataset"
	"highrpm/internal/linmodel"
	"highrpm/internal/model"
	"highrpm/internal/neighbors"
	"highrpm/internal/neural"
	"highrpm/internal/pmu"
	"highrpm/internal/svm"
	"highrpm/internal/tree"
)

// Baseline is one Table 4 comparison model.
type Baseline struct {
	// Name is the paper's abbreviation (LR, LaR, RR, SGD, DT, RF, GB, KNN,
	// SVM, NN, GRU, LSTM).
	Name string
	// Type groups rows the way the tables do (Linear / Nonlinear / RNN).
	Type string
	// New builds an untrained tabular regressor (nil for sequence models).
	New func(seed int64) model.Regressor
	// NewSeq builds an untrained sequence regressor (nil for tabular).
	NewSeq func(cfg Config, seed int64) model.SeqRegressor
}

// Baselines returns the twelve Table 4 models with the paper's
// hyperparameters.
func Baselines() []Baseline {
	return []Baseline{
		{Name: "LR", Type: "Linear", New: func(seed int64) model.Regressor {
			return &model.ScaledRegressor{Inner: linmodel.NewLinear()}
		}},
		{Name: "LaR", Type: "Linear", New: func(seed int64) model.Regressor {
			return &model.ScaledRegressor{Inner: linmodel.NewLasso(0.001)}
		}},
		{Name: "RR", Type: "Linear", New: func(seed int64) model.Regressor {
			return &model.ScaledRegressor{Inner: linmodel.NewRidge(1.0)}
		}},
		{Name: "SGD", Type: "Linear", New: func(seed int64) model.Regressor {
			s := linmodel.NewSGD(seed)
			s.MaxIter = 10000 // Table 4: squared_error, max_iter=10000
			return &model.ScaledRegressor{Inner: s}
		}},
		{Name: "DT", Type: "Nonlinear", New: func(seed int64) model.Regressor {
			t := tree.NewRegressor() // Table 4: squared_error
			t.Seed = seed
			return t
		}},
		{Name: "RF", Type: "Nonlinear", New: func(seed int64) model.Regressor {
			return tree.NewForest(10, seed) // Table 4: #trees=10
		}},
		{Name: "GB", Type: "Nonlinear", New: func(seed int64) model.Regressor {
			return tree.NewGradientBoosting(10, seed) // Table 4: #trees=10
		}},
		{Name: "KNN", Type: "Nonlinear", New: func(seed int64) model.Regressor {
			return &model.ScaledRegressor{Inner: neighbors.NewKNN(3)} // #neighbors=3
		}},
		{Name: "SVM", Type: "Nonlinear", New: func(seed int64) model.Regressor {
			return &model.ScaledRegressor{Inner: svm.NewSVR(seed)}
		}},
		{Name: "NN", Type: "Nonlinear", New: func(seed int64) model.Regressor {
			n := neural.NewBaselineNN(seed) // Table 4: hidden=30
			n.Epochs = 40
			return n
		}},
		{Name: "GRU", Type: "RNN", NewSeq: func(cfg Config, seed int64) model.SeqRegressor {
			g := neural.NewGRU(16, 2, seed) // Table 4: #units=2 (layers)
			g.Epochs = cfg.RNNEpochs
			return g
		}},
		{Name: "LSTM", Type: "RNN", NewSeq: func(cfg Config, seed int64) model.SeqRegressor {
			l := neural.NewLSTM(16, 2, seed)
			l.Epochs = cfg.RNNEpochs
			return l
		}},
	}
}

// pmcWindows builds every full PMC-only sliding window of the set, with
// per-step labels.
func pmcWindows(s *dataset.Set, tgt target, miss int) []dataset.Window {
	labels := tgt.labels(s)
	var out []dataset.Window
	for end := miss - 1; end < s.Len(); end++ {
		out = append(out, dataset.Window{
			Features: pmcWindowAt(s, end, miss),
			Labels:   append([]float64(nil), labels[end-miss+1:end+1]...),
		})
	}
	return out
}

// pmcWindowAt builds the trailing window ending at index end (front-padded
// with the first sample when history is short).
func pmcWindowAt(s *dataset.Set, end, miss int) [][]float64 {
	w := make([][]float64, miss)
	for j := 0; j < miss; j++ {
		i := end - miss + 1 + j
		if i < 0 {
			i = 0
		}
		f := make([]float64, pmu.NumEvents)
		copy(f, s.Samples[i].PMC)
		w[j] = f
	}
	return w
}
