// Package a is the goleaklite analysistest fixture.
package a

// leakySend: the goroutine blocks forever if nobody drains ch.
func leakySend(ch chan int) {
	go func() {
		ch <- 1 // want "channel send with no cancellation escape"
	}()
}

// leakyRecv: the goroutine blocks forever if nobody closes done.
func leakyRecv(done chan struct{}) {
	go func() {
		<-done // want "channel receive with no cancellation escape"
	}()
}

// guarded selects with an escape clause; nothing fires.
func guarded(ch chan int, done chan struct{}) {
	go func() {
		select {
		case ch <- 1:
		case <-done:
		}
	}()
}

// nonBlocking uses default as the escape.
func nonBlocking(ch chan int) {
	go func() {
		select {
		case ch <- 1:
		default:
		}
	}()
}

// namedLaunch launches a declared function; channel discipline inside it is
// the callee's concern.
func namedLaunch(ch chan int) {
	go drain(ch)
}

func drain(ch chan int) {
	for range ch {
	}
}

// nested: each go statement is its own launch site; the inner leak is
// reported once, at the inner send.
func nested(ch chan int, done chan struct{}) {
	go func() {
		go func() {
			ch <- 1 // want "channel send with no cancellation escape"
		}()
		select {
		case ch <- 2:
		case <-done:
		}
	}()
}

// loopBody: a guarded receive loop is the sanctioned worker shape.
func loopBody(in chan int, done chan struct{}, out []int) {
	go func() {
		for {
			select {
			case v := <-in:
				out = append(out, v)
			case <-done:
				return
			}
		}
	}()
}
