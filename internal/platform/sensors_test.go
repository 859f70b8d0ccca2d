package platform

import (
	"math"
	"testing"
)

func traceFor(t *testing.T, dur float64, seed int64) *Trace {
	t.Helper()
	n := mustNode(t, ARMConfig(), seed)
	return n.RunFor(mustBench(t, "HPCC/FFT"), dur, 1)
}

func TestIPMIReadingCadence(t *testing.T) {
	tr := traceFor(t, 100, 1)
	s := NewIPMISensor(10, 2)
	rds := s.Readings(tr)
	if len(rds) != 10 {
		t.Fatalf("100 s at 0.1 Sa/s must give 10 readings, got %d", len(rds))
	}
	// Readings become visible after the read-out latency.
	if rds[0].Time != s.Latency {
		t.Fatalf("first reading at %g want %g", rds[0].Time, s.Latency)
	}
	for i := 1; i < len(rds); i++ {
		if gap := rds[i].Time - rds[i-1].Time; math.Abs(gap-10) > 1e-9 {
			t.Fatalf("reading gap = %g want 10", gap)
		}
	}
}

func TestIPMIReadingAccuracy(t *testing.T) {
	tr := traceFor(t, 300, 3)
	s := NewIPMISensor(10, 4)
	var sumErr float64
	rds := s.Readings(tr)
	for i, r := range rds {
		truth := tr.Samples[i*10].PNode
		sumErr += math.Abs(r.Power - truth)
	}
	avg := sumErr / float64(len(rds))
	// 1 W gaussian + 1 W quantisation: mean abs error well under 3 W.
	if avg > 3 {
		t.Fatalf("mean IPMI error %g W too high", avg)
	}
	if avg == 0 {
		t.Fatal("IPMI must not be a perfect sensor")
	}
}

func TestIPMIQuantisation(t *testing.T) {
	tr := traceFor(t, 50, 5)
	s := NewIPMISensor(10, 6)
	for _, r := range s.Readings(tr) {
		if r.Power != math.Trunc(r.Power) {
			t.Fatalf("reading %g not quantised to 1 W", r.Power)
		}
	}
}

func TestIPMIJitterShiftsTimes(t *testing.T) {
	tr := traceFor(t, 200, 7)
	s := NewIPMISensor(10, 8)
	s.Jitter = 3
	var jittered bool
	for _, r := range s.Readings(tr) {
		off := math.Mod(r.Time-s.Latency, 10)
		if off > 1e-9 && off < 10-1e-9 {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("jittered sensor produced perfectly periodic readings")
	}
}

func TestIPMIRateAndString(t *testing.T) {
	s := NewIPMISensor(10, 1)
	if s.Rate() != 0.1 {
		t.Fatalf("Rate = %g want 0.1", s.Rate())
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}
