package cluster

import (
	"os"
	"testing"

	"highrpm/internal/leaktest"
)

// TestLeaky spawns via a helper without arming the guard: leakcheck
// violation.
func TestLeaky(t *testing.T) {
	done := make(chan struct{})
	spin(done)
	close(done)
}

// TestGuarded arms the guard and must not be flagged.
func TestGuarded(t *testing.T) {
	leaktest.Check(t)
	done := make(chan struct{})
	spin(done)
	close(done)
}

// TestPure spawns nothing and needs no guard.
func TestPure(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "pure")
	if err != nil {
		t.Fatal(err)
	}
	dropOK(f)
}

// Check shares the guard's name but not its package: it arms nothing.
func Check(t testing.TB) { t.Helper() }

// TestLookAlikeLeaky arms the look-alike instead of the guard: leakcheck
// violation.
func TestLookAlikeLeaky(t *testing.T) {
	Check(t)
	done := make(chan struct{})
	spin(done)
	close(done)
}
