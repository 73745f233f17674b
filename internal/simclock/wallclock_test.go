package simclock

import (
	"testing"
	"time"
)

func TestVirtualAdvanceFiresDueTimers(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	a := v.NewTimer(10 * time.Millisecond)
	b := v.NewTimer(30 * time.Millisecond)

	v.Advance(10 * time.Millisecond)
	select {
	case at := <-a.C:
		if !at.Equal(start.Add(10 * time.Millisecond)) {
			t.Fatalf("fired at %v", at)
		}
	default:
		t.Fatal("timer a due but not fired")
	}
	select {
	case <-b.C:
		t.Fatal("timer b fired early")
	default:
	}
	if v.Waiters() != 1 {
		t.Fatalf("waiters = %d, want 1", v.Waiters())
	}

	v.Advance(20 * time.Millisecond)
	select {
	case <-b.C:
	default:
		t.Fatal("timer b due but not fired")
	}
	if v.Waiters() != 0 {
		t.Fatalf("waiters = %d, want 0", v.Waiters())
	}
}

func TestVirtualStopDisarms(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	tm := v.NewTimer(time.Second)
	tm.Stop()
	tm.Stop() // idempotent
	v.Advance(2 * time.Second)
	select {
	case <-tm.C:
		t.Fatal("stopped timer fired")
	default:
	}
}

func TestVirtualSetNeverGoesBackwards(t *testing.T) {
	start := time.Unix(100, 0)
	v := NewVirtual(start)
	v.Set(start.Add(-time.Minute))
	if got := v.Now(); !got.Equal(start) {
		t.Fatalf("clock went backwards to %v", got)
	}
}

func TestVirtualTieBreakIsArmingOrder(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	first := v.NewTimer(time.Second)
	second := v.NewTimer(time.Second)
	v.Advance(time.Second)
	// Both fired; buffered channels hold the ticks regardless of order,
	// but neither may be lost.
	<-first.C
	<-second.C
}

// TestVirtualFireNextOneAtATime: FireNext fires the earliest timer
// alone — ties by key, whatever the arming order — and disarms timers
// under dead keys without moving the clock to them.
func TestVirtualFireNextOneAtATime(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewVirtual(start)
	armedFirst := v.Keyed(2).NewTimer(time.Second)
	armedSecond := v.Keyed(1).NewTimer(time.Second)
	disarmed := v.Keyed(9).NewTimer(time.Millisecond)
	earliest := v.Keyed(3).NewTimer(time.Millisecond)
	dead := map[int]bool{9: true}
	for _, want := range []struct {
		key int
		tm  *Timer
		at  time.Duration
	}{{3, earliest, time.Millisecond}, {1, armedSecond, time.Second}, {2, armedFirst, time.Second}} {
		key, ok := v.FireNext(dead)
		if !ok || key != want.key {
			t.Fatalf("fired key %d (ok %v), want %d", key, ok, want.key)
		}
		if at := <-want.tm.C; !at.Equal(start.Add(want.at)) || !v.Now().Equal(at) {
			t.Fatalf("key %d fired at %v, clock %v, want %v", key, at, v.Now(), start.Add(want.at))
		}
	}
	if _, ok := v.FireNext(dead); ok || v.Waiters() != 0 {
		t.Fatalf("a timer is left: ok %v, %d waiters", ok, v.Waiters())
	}
	select {
	case <-disarmed.C:
		t.Fatal("a dead key's timer fired")
	default:
	}
}

func TestRealClockTimerFires(t *testing.T) {
	clk := Real()
	if clk.Now().IsZero() {
		t.Fatal("real clock reads zero")
	}
	tm := clk.NewTimer(time.Millisecond)
	select {
	case <-tm.C:
	case <-time.After(5 * time.Second):
		t.Fatal("real timer never fired")
	}
	tm.Stop() // safe after firing
}
