package cluster

// BatchOptions tunes Agent-side sample coalescing: instead of one frame
// (and one reply) per second, Agent.Record queues samples and flushes them
// as a KindRecordBatch once MaxSamples are pending. Batching trades
// per-sample latency for frames — the service processes a batch in order
// through the same per-sample path, so the estimates are exactly what
// individual Sends would have returned.
type BatchOptions struct {
	// MaxSamples flushes when this many samples are pending. Values below 2
	// disable batching (Record behaves like Send).
	MaxSamples int
}

// batchSlot is one pending sample. The PMC slice is owned by the batcher
// (copied from the caller on add, reused across flushes), so callers may
// reuse their own buffers between Record calls — a stronger contract than
// Send, which borrows the caller's slice only for the round trip.
type batchSlot struct {
	t           float64
	pmc         []float64
	measured    float64
	hasMeasured bool
}

// batcher accumulates an Agent's pending samples. Like the Agent that
// embeds it, it is single-goroutine.
type batcher struct {
	opts  BatchOptions
	slots []batchSlot
	n     int
	wire  []BatchSample // reused wire form handed to writeRecordBatch
}

func (b *batcher) add(t float64, pmc []float64, measured *float64) {
	if b.n == len(b.slots) {
		b.slots = append(b.slots, batchSlot{})
	}
	s := &b.slots[b.n]
	s.t = t
	s.pmc = append(s.pmc[:0], pmc...)
	s.hasMeasured = measured != nil
	if s.hasMeasured {
		s.measured = *measured
	}
	b.n++
}

// wireSamples builds the batch's wire form. The returned slice (and the
// Measured pointers in it, which point into the slots) is valid until the
// next add or reset.
func (b *batcher) wireSamples() []BatchSample {
	w := b.wire[:0]
	for i := 0; i < b.n; i++ {
		s := &b.slots[i]
		bs := BatchSample{Time: s.t, PMC: s.pmc}
		if s.hasMeasured {
			bs.Measured = &s.measured
		}
		w = append(w, bs)
	}
	b.wire = w
	return w
}

func (b *batcher) reset() { b.n = 0 }
