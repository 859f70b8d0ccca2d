package experiments

import (
	"io"
	"testing"
)

// BenchmarkExperiment runs every experiment `highrpm-bench -list` prints, on
// a fresh workspace and a new seed per iteration, and renders its tables —
// the paper's motivation and evaluation sections at bench scale. For
// paper-scale runs use
//
//	go run ./cmd/highrpm-bench -scale full
func BenchmarkExperiment(b *testing.B) {
	for _, id := range DefaultOrder() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := NewConfig(ScaleBench)
				cfg.Seed = int64(i + 1)
				tables, err := Run(NewWorkspace(cfg), id)
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range tables {
					t.Render(io.Discard)
				}
			}
		})
	}
}
