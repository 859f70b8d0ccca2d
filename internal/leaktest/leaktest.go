// Package leaktest holds the goroutine-leak guard that the cluster, obs,
// tsdb and fleet tests arm, and that highrpm-vet's leakcheck rule looks
// for by this package's path and the name Check.
package leaktest

import (
	"runtime"
	"testing"
	"time"
)

// Check arms a goroutine-leak assertion for the calling test: at cleanup
// time the goroutine count must return to at most what it was when the
// test started. Call it first thing in a test, before any
// t.Cleanup-registered server — cleanups run LIFO, so the check runs after
// every server has shut down.
//
// The count is polled with a deadline rather than compared once: handler
// goroutines finish asynchronously after a listener closes, and the first
// test in a package may also pay the one-off cost of training a shared
// model whose worker goroutines wind down on their own schedule.
func Check(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var n int
		for {
			n = runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, n, buf)
	})
}
