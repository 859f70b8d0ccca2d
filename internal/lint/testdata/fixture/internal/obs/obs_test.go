package obs

import (
	"testing"

	"highrpm/internal/leaktest"
)

// TestServeLeaky starts the server's goroutine without arming the guard:
// leakcheck violation.
func TestServeLeaky(t *testing.T) {
	s := &Server{}
	s.Listen()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeGuarded arms the guard and must not be flagged.
func TestServeGuarded(t *testing.T) {
	leaktest.Check(t)
	s := &Server{}
	s.Listen()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
