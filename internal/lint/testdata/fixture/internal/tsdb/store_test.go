package tsdb

import (
	"testing"

	"highrpm/internal/leaktest"
)

// TestAggregateLeaky drives the parallel fan-out without arming the
// guard: leakcheck violation.
func TestAggregateLeaky(t *testing.T) {
	var st Store
	st.Aggregate(4)
}

// TestAggregateGuarded arms the guard and must not be flagged.
func TestAggregateGuarded(t *testing.T) {
	leaktest.Check(t)
	var st Store
	st.Aggregate(4)
}
