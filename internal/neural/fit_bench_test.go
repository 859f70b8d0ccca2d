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
