// Positive and negative corpus for poolown: lines with `want` comments
// must be flagged, lines without must stay silent.
package a

// BufPool stands in for the size-classed pools; any *Pool* type with
// Get/Put is recognized.
type BufPool struct{}

func (p *BufPool) Get(n int) []byte { return make([]byte, n) }
func (p *BufPool) Put(b []byte)     {}
func (p *BufPool) get(n int) []byte { return make([]byte, n) }
func (p *BufPool) put(b []byte)     {}
func (p *BufPool) Release(b []byte) {}

type message struct{ payload []byte }

func recycle(m message) {}

// server is the long-lived struct for the escape rule.
type server struct {
	pool    *BufPool
	scratch []byte
}

// useAfterPut is the P1 classic.
func useAfterPut(pool *BufPool) byte {
	buf := pool.Get(64)
	buf[0] = 1
	pool.Put(buf)
	return buf[0] // want "pooled buffer .buf. used after release"
}

// releaseInFallthroughBranch: a conditional release poisons the code after
// the branch.
func releaseInFallthroughBranch(pool *BufPool, bad bool) byte {
	buf := pool.Get(64)
	if bad {
		pool.Put(buf)
	}
	return buf[0] // want "pooled buffer .buf. used after release"
}

// releaseInTerminatingBranch is the legal early-exit shape: the release is
// followed by a return, so the fall-through still owns the buffer.
func releaseInTerminatingBranch(pool *BufPool, bad bool) byte {
	buf := pool.Get(64)
	if bad {
		pool.Put(buf)
		return 0
	}
	buf[0] = 1
	pool.Put(buf)
	return 1
}

// doubleRelease is P2.
func doubleRelease(pool *BufPool) {
	buf := pool.Get(64)
	pool.Put(buf)
	pool.Put(buf) // want "pooled buffer .buf. released twice"
}

// deferredReleaseIsFine: defer runs at exit, the body keeps the handle.
func deferredReleaseIsFine(pool *BufPool) byte {
	buf := pool.Get(64)
	defer pool.Put(buf)
	buf[0] = 1
	return buf[0]
}

// loopBodyOwnership is the readLoop shape: acquire, branch-release-return,
// fall-through release, next iteration reacquires.
func loopBodyOwnership(pool *BufPool, n int) {
	for i := 0; i < n; i++ {
		buf := pool.get(64)
		if i == 3 {
			pool.put(buf)
			return
		}
		buf[0] = byte(i)
		pool.put(buf)
	}
}

// lowercaseRelease covers the unexported pool face and Release.
func lowercaseRelease(pool *BufPool) byte {
	buf := pool.get(64)
	pool.Release(buf)
	return buf[0] // want "pooled buffer .buf. used after release"
}

// recycleRelease covers the recycle-style release.
func recycleRelease(pool *BufPool) byte {
	buf := pool.Get(64)
	Recycle(buf)
	return buf[0] // want "pooled buffer .buf. used after release"
}

// recycleOfComposite: the tracked ident is inside a composite literal, not
// a direct argument — ownership went with the message, tracking stops being
// precise, and the analyzer stays silent.
func recycleOfComposite(pool *BufPool) {
	buf := pool.Get(64)
	recycle(message{payload: buf})
}

// Recycle returns a buffer to its pool.
func Recycle(b []byte) {}

// escapeIntoReceiver is P3: a live handle stored into receiver state
// outlives the exchange.
func (s *server) escapeIntoReceiver() {
	buf := s.pool.Get(64)
	s.scratch = buf // want "pooled buffer .buf. escapes into a long-lived struct"
}

// transferViaChannel is legal ownership transfer.
func transferViaChannel(pool *BufPool, ch chan []byte) {
	buf := pool.Get(64)
	ch <- buf
}

// transferViaReturn is legal ownership transfer.
func transferViaReturn(pool *BufPool) []byte {
	buf := pool.Get(64)
	return buf
}

// storeInLocalStruct is legal: the message is as short-lived as the frame.
func storeInLocalStruct(pool *BufPool) message {
	buf := pool.Get(64)
	m := message{}
	m.payload = buf
	return m
}

// senderGoroutineOwnership is the sender-goroutine shape: the goroutine
// body is its own flow and keeps the loop-body acquire/release discipline.
func senderGoroutineOwnership(pool *BufPool, n int) {
	go func() {
		for i := 0; i < n; i++ {
			buf := pool.Get(64)
			buf[0] = byte(i)
			pool.Put(buf)
		}
	}()
}

// useAfterPutInsideGoroutine: a release across a goroutine boundary is
// still a release — the closure's own later use is flagged.
func useAfterPutInsideGoroutine(pool *BufPool) {
	go func() {
		buf := pool.Get(64)
		pool.Put(buf)
		buf[0] = 1 // want "pooled buffer .buf. used after release"
	}()
}

// transferIntoGoroutine is legal: the spawner hands the handle to the
// goroutine (ownership transfer, like a channel send) and never touches it
// again; the closure, a fresh flow, releases an untracked capture.
func transferIntoGoroutine(pool *BufPool) {
	buf := pool.Get(64)
	go func() {
		pool.Put(buf)
	}()
}

// reassignmentClearsTracking mirrors the append-grow idiom.
func reassignmentClearsTracking(pool *BufPool) {
	buf := pool.Get(8)[:0]
	buf = append(buf, 1, 2, 3)
	pool.Put(buf)
	_ = buf // reassigned handle is no longer tracked
}
