package tsdb

import (
	"testing"

	"highrpm/internal/leaktest"
)

// TestOpenLeaky opens the durable store — a spawn API: Open starts the
// batch flusher — without arming the guard: leakcheck violation.
func TestOpenLeaky(t *testing.T) {
	st := Open()
	_ = st
}

// TestOpenGuarded arms the guard first and must not be flagged.
func TestOpenGuarded(t *testing.T) {
	leaktest.Check(t)
	st := Open()
	_ = st
}
