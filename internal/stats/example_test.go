package stats_test

import (
	"fmt"

	"highrpm/internal/stats"
)

// ExampleEvaluate scores a restored power series against ground truth with
// the paper's metrics (§5.5).
func ExampleEvaluate() {
	observed := []float64{100, 100, 100, 100}
	predicted := []float64{110, 90, 100, 100}
	m := stats.Evaluate(observed, predicted)
	fmt.Printf("MAPE=%.0f%% RMSE=%.2f MAE=%.0f\n", m.MAPE, m.RMSE, m.MAE)
	// Output: MAPE=5% RMSE=7.07 MAE=5
}
