package core

import "runtime"

// Shards sizes work by the machine's core count: determinism violation.
// The directive above it names no rule highrpm-vet runs, so it is a
// finding and suppresses nothing.
//
//lint:ignore nosuch fixture names a rule that does not exist
func Shards() int { return runtime.GOMAXPROCS(0) }
