package fleet

import (
	"testing"

	"highrpm/internal/leaktest"
)

// TestRouterLeaky starts the router's accept goroutine without arming the
// guard: leakcheck violation.
func TestRouterLeaky(t *testing.T) {
	r := &Router{}
	r.Listen()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterGuarded arms the guard and must not be flagged.
func TestRouterGuarded(t *testing.T) {
	leaktest.Check(t)
	r := &Router{}
	r.Listen()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
