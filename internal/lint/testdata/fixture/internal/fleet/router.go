// Package fleet carries the errdrop and leakcheck fixtures for the
// scale-out router layer: discarded Router Shutdown/Close errors and
// tests that start the accept goroutine without arming the guard. The
// goroutine is spawned a package away, by the cluster connection server
// the router fronts — leakcheck must follow the Listen call across.
package fleet

import (
	"time"

	"highrpm/internal/cluster"
)

// Router is a fleet-like front-end over the shared connection server.
type Router struct {
	srv cluster.Server
}

// Listen starts the server's accept goroutine.
func (r *Router) Listen() { r.srv.Listen() }

// Shutdown drains in-flight requests and stops the router.
func (r *Router) Shutdown(grace time.Duration) error {
	_ = grace
	return r.srv.Close()
}

// Close stops the router immediately.
func (r *Router) Close() error { return r.srv.Close() }

// shutdownDropped discards the Shutdown error: errdrop violation.
func shutdownDropped(r *Router) {
	r.Shutdown(time.Second)
}

// closeDropped discards the Close error: errdrop violation.
func closeDropped(r *Router) {
	r.Close()
}

// shutdownOK propagates the error and must not be flagged.
func shutdownOK(r *Router) error {
	return r.Shutdown(time.Second)
}

// closeDeferred defers cleanup, which is exempt by design.
func closeDeferred(r *Router) {
	defer r.Close()
}
