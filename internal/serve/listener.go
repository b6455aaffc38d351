package serve

import (
	"context"
	"errors"
	"net"
	"sync"

	"dgcl/internal/comm/wire"
)

// ServeListener accepts connections on ln and answers DGS1 requests until the
// listener is closed. It then closes the read side of every open connection,
// so idle handlers return at once while a reply already being computed is
// still written, and returns after every handler has exited: callers can
// close the listener and then the server without leaking goroutines. A
// closed listener returns nil; any other accept error is returned as-is.
func (s *Server) ServeListener(ln net.Listener) error {
	closing, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			unregister := context.AfterFunc(closing, func() { closeRead(conn) })
			defer unregister()
			s.serveConn(conn)
		}()
	}
}

// closeRead ends conn's reads but not its writes, so its handler sees EOF at
// its next ReadRequest however the read deadline is set. A connection with
// no read side to close (neither TCP nor Unix) is closed outright.
func closeRead(conn net.Conn) {
	if c, ok := conn.(interface{ CloseRead() error }); ok {
		c.CloseRead()
		return
	}
	conn.Close()
}

// serveConn answers one connection's requests in order. Any read, decode, or
// write failure (including the idle timeout) shears the connection down; the
// client reconnects.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		req, err := ReadRequest(conn, idleTimeout)
		if err != nil {
			return
		}
		switch req.Op {
		case OpQuery:
			if err := s.handleQuery(conn, req); err != nil {
				return
			}
		case OpStats:
			reply := StatsReply{ID: req.ID, NumVertices: s.numVertices, Stats: s.Stats()}
			if err := wire.WriteControl(conn, &reply, writeTimeout); err != nil {
				return
			}
		}
	}
}

// handleQuery fans one request's vertices out as concurrent Query calls —
// concurrent misses share one flight — and replies with one slot per vertex in
// request order.
func (s *Server) handleQuery(conn net.Conn, req *Request) error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	reply := QueryReply{
		ID:       req.ID,
		Rows:     make([][]float32, len(req.Vertices)),
		Versions: make([]uint64, len(req.Vertices)),
		Cached:   make([]bool, len(req.Vertices)),
		Errors:   make([]string, len(req.Vertices)),
	}
	var wg sync.WaitGroup
	for i, v := range req.Vertices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Query(ctx, int(v))
			if err != nil {
				reply.Errors[i] = err.Error()
				return
			}
			reply.Rows[i] = res.Row
			reply.Versions[i] = res.Version
			reply.Cached[i] = res.Cached
		}()
	}
	wg.Wait()
	return wire.WriteControl(conn, &reply, writeTimeout)
}
