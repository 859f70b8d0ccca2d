package cluster

// Server stands in for the shared connection server: the accept goroutine
// lives here, not in the packages that front it.
type Server struct {
	done chan struct{}
}

// Listen starts the accept goroutine.
func (s *Server) Listen() {
	s.done = make(chan struct{})
	go func() { <-s.done }()
}

// Close stops the server.
func (s *Server) Close() error {
	close(s.done)
	return nil
}
