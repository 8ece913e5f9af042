package janusd

import (
	"context"
	"net"
	"os"
	"time"
)

// Serve accepts connections on ln until the daemon is stopped. It
// returns http.ErrServerClosed after a clean Drain or Close, matching
// net/http's contract.
func (s *Server) Serve(ln net.Listener) error {
	return s.http.Serve(ln)
}

// Drain gracefully stops the daemon: new submissions are refused with
// a typed draining error (and /readyz flips to 503) while every
// in-flight job runs to completion and its response stays deliverable.
// If ctx expires first, the remaining jobs are cancelled through their
// contexts so they flush typed cancellation errors instead of being
// dropped mid-render — clients always see a terminal response.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	first := !s.draining
	s.draining = true
	running, queued := s.loadLocked()
	s.mu.Unlock()
	if !first {
		return nil // second drain is a no-op; the first owns shutdown
	}
	s.cfg.Log.Printf("janusd: pid %d draining (%d queued, %d running)",
		os.Getpid(), queued, running)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cfg.Log.Printf("janusd: drain deadline passed, cancelling in-flight jobs")
		s.baseCancel()
		<-done // cancelled renders abandon pending rows and finish fast
	}
	// Every job has a terminal response now. net/http's Shutdown counts
	// a connection that has sent no request as active until it is 5 s
	// old — as long as the flush window below — so a client's spare
	// connection would run the window out: close those first.
	s.connMu.Lock()
	s.closeSilent = true
	for c := range s.silent {
		c.Close()
	}
	s.connMu.Unlock()
	// Give in-flight HTTP exchanges a moment to flush their responses
	// before connections close.
	flushCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.http.Shutdown(flushCtx)
	s.cfg.Log.Printf("janusd: pid %d drained", os.Getpid())
	return err
}

// Close hard-stops the daemon: jobs are cancelled and connections
// closed without waiting. Tests use it; production paths should Drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.baseCancel()
	return s.http.Close()
}
