// Positive and negative corpus for lockdisc: lines with `want` comments
// must be flagged, lines without must stay silent.
package a

import (
	"sync"
	"time"
)

// conn is deadline-capable (SetReadDeadline(time.Time)), so lockdisc
// treats its Read/Write as socket I/O.
type conn struct{}

func (c *conn) Read(p []byte) (int, error)        { return 0, nil }
func (c *conn) Write(p []byte) (int, error)       { return 0, nil }
func (c *conn) SetReadDeadline(t time.Time) error { return nil }

type server struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	wg   sync.WaitGroup
	ch   chan int
	conn *conn
}

// sendUnderLock is L1.
func (s *server) sendUnderLock(v int) {
	s.mu.Lock()
	s.ch <- v // want "s.mu is held across a channel send"
	s.mu.Unlock()
}

// recvUnderLock is L1.
func (s *server) recvUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "s.mu is held across a channel receive"
}

// unlockBeforeSend is the legal shape: release, then communicate.
func (s *server) unlockBeforeSend(v int) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- v
}

// selectUnderLock is L2.
func (s *server) selectUnderLock(done chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "s.mu is held across a select without a default case"
	case v := <-s.ch:
		_ = v
	case <-done:
	}
}

// defaultSelectUnderLock is non-blocking and legal (a non-blocking queue
// submit).
func (s *server) defaultSelectUnderLock(v int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- v:
		return true
	default:
		return false
	}
}

// connWriteUnderRLock is L3: readers block writers too.
func (s *server) connWriteUnderRLock(p []byte) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.conn.Write(p) // want "s.rw is held across net.Conn Write"
}

// sleepUnderLock is L3.
func (s *server) sleepUnderLock() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want "s.mu is held across time.Sleep"
	s.mu.Unlock()
}

// waitUnderLock is L3.
func (s *server) waitUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want "s.mu is held across sync.WaitGroup.Wait"
}

// condWaitIsExempt: sync.Cond.Wait releases the lock while waiting.
func (s *server) condWaitIsExempt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cond.Wait()
}

// drain blocks (a bare receive): callers holding a lock get flagged one
// call deep.
func (s *server) drain() int {
	return <-s.ch
}

// callBlockingHelperUnderLock is L4.
func (s *server) callBlockingHelperUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drain() // want "s.mu is held across a call to server.drain, which blocks"
}

// pure is a non-blocking helper: calling it under a lock is fine.
func (s *server) pure(v int) int { return v * 2 }

func (s *server) callPureHelperUnderLock(v int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pure(v)
}

// spawnUnderLock: the goroutine does not run under the spawner's lock, and
// its body is its own unit (where the bare send is legal — ctxbound's
// concern, not lockdisc's).
func (s *server) spawnUnderLock(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.ch <- v
	}()
}

// goroutineBodyIsChecked: a goroutine that takes the lock itself plays by
// the same rules.
func (s *server) goroutineBodyIsChecked(v int) {
	go func() {
		s.mu.Lock()
		s.ch <- v // want "s.mu is held across a channel send"
		s.mu.Unlock()
	}()
}

// branchIntersection: the lock is held on only one path into the send, so
// the join does not count it as held.
func (s *server) branchIntersection(lock bool, v int) {
	if lock {
		s.mu.Lock()
		s.mu.Unlock()
	}
	s.ch <- v
}

// readFullUnderLock is L3 via the io helper.
func (s *server) readFullUnderLock(buf []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	readFull(s.conn, buf) // want "s.mu is held across a call to readFull, which blocks"
}

func readFull(c *conn, buf []byte) error {
	for n := 0; n < len(buf); {
		m, err := c.Read(buf[n:])
		n += m
		if err != nil {
			return err
		}
	}
	return nil
}
