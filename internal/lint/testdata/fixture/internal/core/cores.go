package core

import "runtime"

// Shards sizes work by the machine's core count: determinism violation.
func Shards() int { return runtime.GOMAXPROCS(0) }
