package cluster

import "time"

// BatchOptions tunes agent-side sample coalescing: instead of one frame
// (and one reply) per second, Record queues samples and flushes them as a
// KindRecordBatch once MaxSamples are pending or the oldest has waited
// MaxDelay. Batching trades per-sample latency for frames — the service
// processes a batch in order through the same per-sample path, so the
// estimates are exactly what individual Sends would have returned.
type BatchOptions struct {
	// MaxSamples flushes when this many samples are pending. Values below 2
	// disable batching (Record behaves like Send).
	MaxSamples int
	// MaxDelay flushes when the oldest pending sample has waited this long,
	// bounding the latency a slow sample rate adds (0: size-only flushes).
	MaxDelay time.Duration
}

// enabled reports whether Record should coalesce at all.
func (o BatchOptions) enabled() bool { return o.MaxSamples > 1 }

// batchSlot is one pending sample. The PMC slice is owned by the batcher
// (copied from the caller on add, reused across flushes), so callers may
// reuse their own buffers between Record calls — a stronger contract than
// Send, which borrows the caller's slice only for the round trip.
type batchSlot struct {
	t           float64
	pmc         []float64
	measured    float64
	relayed     RelayedEstimate
	hasMeasured bool
	hasRelayed  bool
}

// batcher accumulates pending samples for one agent. Like the agents that
// embed it, it is single-goroutine.
type batcher struct {
	opts   BatchOptions
	slots  []batchSlot
	n      int
	oldest time.Time     // wall-clock arrival of the oldest pending sample
	wire   []BatchSample // reused wire form handed to writeRecordBatch
}

// sender is what record drives: the agent the batcher belongs to.
type sender interface {
	Send(t float64, pmc []float64, measured *float64) (Estimate, error)
	Flush() ([]Estimate, error)
}

// record is Record for both agent types: without batching one Send, with
// it a queued sample and a Flush once the batch is full or overdue.
func (b *batcher) record(s sender, t float64, pmc []float64, measured *float64) ([]Estimate, error) {
	if !b.opts.enabled() {
		est, err := s.Send(t, pmc, measured)
		if err != nil {
			return nil, err
		}
		return []Estimate{est}, nil
	}
	b.add(t, pmc, measured, nil)
	if b.full() || b.due() {
		return s.Flush()
	}
	return nil, nil
}

func (b *batcher) add(t float64, pmc []float64, measured *float64, rel *RelayedEstimate) {
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
	s.hasRelayed = rel != nil
	if s.hasRelayed {
		s.relayed = *rel
	}
	if b.n == 0 {
		b.oldest = time.Now()
	}
	b.n++
}

// full reports a size-triggered flush; due a delay-triggered one.
func (b *batcher) full() bool { return b.n >= b.opts.MaxSamples }
func (b *batcher) due() bool {
	return b.opts.MaxDelay > 0 && b.n > 0 && time.Since(b.oldest) >= b.opts.MaxDelay
}

// wireSamples builds the batch's wire form. The returned slice (and the
// Measured and Relayed pointers in it, which point into the slots) is valid
// until the next add or reset.
func (b *batcher) wireSamples() []BatchSample {
	w := b.wire[:0]
	for i := 0; i < b.n; i++ {
		s := &b.slots[i]
		bs := BatchSample{Time: s.t, PMC: s.pmc}
		if s.hasMeasured {
			bs.Measured = &s.measured
		}
		if s.hasRelayed {
			bs.Relayed = &s.relayed
		}
		w = append(w, bs)
	}
	b.wire = w
	return w
}

func (b *batcher) reset() { b.n = 0 }
