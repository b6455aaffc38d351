package clock

import (
	"testing"
	"time"
)

func fired(ch <-chan time.Time) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestFakeFiresOnlyWhenAdvancedToTheDeadline(t *testing.T) {
	start := time.Unix(1000, 0)
	c := NewFake(start)
	early, _ := c.After(time.Second)
	late, _ := c.After(3 * time.Second)

	c.Advance(999 * time.Millisecond)
	if fired(early) || fired(late) {
		t.Fatal("timer fired before its deadline")
	}
	c.Advance(time.Millisecond)
	if !fired(early) {
		t.Fatal("timer did not fire when the clock reached its deadline exactly")
	}
	if fired(late) {
		t.Fatal("later timer fired with the earlier one")
	}
	c.Advance(time.Hour)
	if !fired(late) {
		t.Fatal("timer did not fire when the clock passed its deadline")
	}
	if fired(early) {
		t.Fatal("a timer fired twice")
	}
	if want := start.Add(time.Hour + time.Second); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
}

func TestFakeOneAdvanceFiresEveryDueTimer(t *testing.T) {
	c := NewFake(time.Unix(0, 0))
	a, _ := c.After(2 * time.Second)
	b, _ := c.After(time.Second)
	c.Advance(5 * time.Second)
	if !fired(a) || !fired(b) {
		t.Fatal("one Advance past two deadlines must fire both timers")
	}
}

func TestFakeStopReportsWhetherItPreventedTheFiring(t *testing.T) {
	c := NewFake(time.Unix(0, 0))
	ch, stop := c.After(time.Second)
	if !stop() {
		t.Fatal("stopping an armed timer must report true")
	}
	if stop() {
		t.Fatal("a second stop must report false")
	}
	c.Advance(time.Minute)
	if fired(ch) {
		t.Fatal("a stopped timer fired")
	}

	ch, stop = c.After(time.Second)
	c.Advance(time.Second)
	if stop() {
		t.Fatal("stopping a fired timer must report false")
	}
	if !fired(ch) {
		t.Fatal("the firing must still be readable after a late stop")
	}
}

func TestFakeNonPositiveDurationFiresAtOnce(t *testing.T) {
	c := NewFake(time.Unix(0, 0))
	for _, d := range []time.Duration{0, -time.Second} {
		ch, stop := c.After(d)
		if !fired(ch) {
			t.Fatalf("After(%v) did not fire immediately", d)
		}
		if stop() {
			t.Fatalf("After(%v): stop reported it prevented a firing that happened", d)
		}
	}
}

func TestRealFiresAndStops(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	ch, _ := c.After(time.Millisecond)
	select {
	case at := <-ch:
		if at.Before(before) || c.Now().Before(at) {
			t.Fatalf("fired at %v, outside [%v, now]", at, before)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
	_, stop := c.After(time.Hour)
	if !stop() {
		t.Fatal("stopping an armed real timer must report true")
	}
}
