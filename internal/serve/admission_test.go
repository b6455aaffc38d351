package serve

import (
	"testing"
	"time"
)

func TestTokenBucketRefill(t *testing.T) {
	now := time.Unix(1700000000, 0)
	b := newTokenBucket(10, 2, now) // 10 tokens/s, burst 2, starts full
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst tokens not available")
	}
	if b.allow(now) {
		t.Fatal("empty bucket admitted a request")
	}
	// 100ms refills exactly one token at 10/s.
	now = now.Add(100 * time.Millisecond)
	if !b.allow(now) {
		t.Fatal("refilled token not available")
	}
	if b.allow(now) {
		t.Fatal("second token appeared from a single refill")
	}
	// Refill caps at burst even after a long idle stretch.
	now = now.Add(time.Hour)
	if !b.allow(now) || !b.allow(now) {
		t.Fatal("burst not refilled after idle")
	}
	if b.allow(now) {
		t.Fatal("bucket exceeded burst capacity")
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	var b *tokenBucket
	if b = newTokenBucket(0, 5, time.Unix(0, 0)); b != nil {
		t.Fatal("rate 0 should disable limiting")
	}
	for i := 0; i < 100; i++ {
		if !b.allow(time.Unix(0, 0)) {
			t.Fatal("nil bucket rejected a request")
		}
	}
}
