package neural

import "testing"

// BenchmarkLSTMFit measures a full fixed-seed LSTM fit; its allocs/op
// figure shows the executor allocating per fit, not per step.
func BenchmarkLSTMFit(b *testing.B) {
	seqs, targets := goldenData(42, 32, 16, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := NewLSTM(16, 2, 7)
		l.Epochs = 2
		if err := l.FitSeq(seqs, targets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFineTuneLatency measures one online fine-tune step — the
// operation DynamicTRR performs at every measured sample, whose latency
// bounds the monitoring loop (§6.4.5 reports sub-2 s fine-tuning).
func BenchmarkFineTuneLatency(b *testing.B) {
	seqs, targets := goldenData(42, 32, 16, 8)
	l := NewLSTM(16, 2, 7)
	l.Epochs = 2
	if err := l.FitSeq(seqs, targets); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.FineTune(seqs[:1], targets[:1]); err != nil {
			b.Fatal(err)
		}
	}
}

// predictSink keeps BenchmarkPredictLast's calls from being optimised away.
var predictSink float64

// BenchmarkPredictLast measures one served estimate on DynamicTRR's shape
// (11 inputs, Hidden 16, one layer, a 10-step window) on each kernel path.
func BenchmarkPredictLast(b *testing.B) {
	seqs, targets := goldenData(42, 32, 10, 11)
	l := NewLSTM(16, 1, 7)
	l.Epochs = 2
	if err := l.FitSeq(seqs, targets); err != nil {
		b.Fatal(err)
	}
	selected := vectorKernels
	defer func() { vectorKernels = selected }()
	for _, vec := range []bool{false, true} {
		if vec && !selected {
			continue
		}
		name := "portable"
		if vec {
			name = "vector"
		}
		b.Run(name, func(b *testing.B) {
			vectorKernels = vec
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				predictSink = l.PredictLast(seqs[i%len(seqs)])
			}
		})
	}
}
