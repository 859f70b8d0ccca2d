// WAL fixture: a dropped fsync error voids the durability guarantee, so
// errdrop must flag it; Open stands in for the durable store constructor.
package tsdb

import "os"

// syncBad drops the fsync error: errdrop violation.
func syncBad(f *os.File) {
	f.Sync()
}

// syncOK propagates the error and must not be flagged.
func syncOK(f *os.File) error {
	return f.Sync()
}

// syncAck acknowledges the error explicitly, which is exempt by design.
func syncAck(f *os.File) {
	_ = f.Sync()
}

// Open stands in for the durable store constructor. It is a spawn API by
// name: the real Open starts the WAL batch flusher goroutine under the
// default fsync policy, so tests calling it must arm leaktest.Check even
// though no go statement is visible at the call site.
func Open() *Store {
	return &Store{}
}
