package simclock

import (
	"sort"
	"sync"
	"time"
)

// WallClock abstracts the passage of wall time for components that wait
// on deadlines (the FL round engine). Production code injects Real();
// tests and the flsim harness inject a Virtual clock so deadline
// behaviour is deterministic — core logic never calls time.Now or
// time.After directly.
type WallClock interface {
	// Now returns the current wall time.
	Now() time.Time
	// NewTimer arms a timer that delivers one tick on C after d. Stop
	// disarms it; a stopped timer never fires.
	NewTimer(d time.Duration) *Timer
}

// Timer is a WallClock timer. C carries at most one tick.
type Timer struct {
	// C delivers the firing time.
	C <-chan time.Time

	stop func()
}

// Stop disarms the timer. It is safe to call after firing or twice.
func (t *Timer) Stop() {
	if t.stop != nil {
		t.stop()
	}
}

// realClock delegates to the runtime clock.
type realClock struct{}

// Real returns the process wall clock.
func Real() WallClock { return realClock{} }

// Now implements WallClock.
func (realClock) Now() time.Time { return time.Now() }

// NewTimer implements WallClock.
func (realClock) NewTimer(d time.Duration) *Timer {
	rt := time.NewTimer(d)
	return &Timer{C: rt.C, stop: func() { rt.Stop() }}
}

// Virtual is a manually advanced WallClock. Time only moves when Advance,
// Set or FireNext is called; due timers fire in timestamp order during
// the call. All methods are safe for concurrent use.
type Virtual struct {
	mu     sync.Mutex
	now    time.Time
	timers []*virtualTimer
	seq    int
}

type virtualTimer struct {
	at  time.Time
	key int // the owner a Keyed view armed it for
	seq int
	ch  chan time.Time
}

// before orders timers by fire time, then key, then arming order.
func (a *virtualTimer) before(b *virtualTimer) bool {
	if !a.at.Equal(b.at) {
		return a.at.Before(b.at)
	}
	return a.key < b.key || a.key == b.key && a.seq < b.seq
}

// NewVirtual creates a virtual clock reading start.
func NewVirtual(start time.Time) *Virtual { return &Virtual{now: start} }

// Now implements WallClock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// NewTimer implements WallClock (under key 0). A timer armed with d <= 0
// fires on the next Advance (or immediately on Advance(0)).
func (v *Virtual) NewTimer(d time.Duration) *Timer { return v.newTimer(0, d) }

// Keyed returns a view of v whose timers are armed under key: FireNext
// reports it, and orders timers due at the same instant by it.
func (v *Virtual) Keyed(key int) WallClock { return keyedClock{v, key} }

type keyedClock struct {
	v   *Virtual
	key int
}

func (k keyedClock) Now() time.Time                  { return k.v.Now() }
func (k keyedClock) NewTimer(d time.Duration) *Timer { return k.v.newTimer(k.key, d) }

func (v *Virtual) newTimer(key int, d time.Duration) *Timer {
	v.mu.Lock()
	defer v.mu.Unlock()
	vt := &virtualTimer{at: v.now.Add(d), key: key, seq: v.seq, ch: make(chan time.Time, 1)}
	v.seq++
	v.timers = append(v.timers, vt)
	return &Timer{C: vt.ch, stop: func() { v.stopTimer(vt) }}
}

func (v *Virtual) stopTimer(vt *virtualTimer) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, t := range v.timers {
		if t == vt {
			v.timers = append(v.timers[:i], v.timers[i+1:]...)
			break
		}
	}
}

// Advance moves the clock forward by d, firing every due timer in
// timestamp order (key, then arming order, breaks ties).
func (v *Virtual) Advance(d time.Duration) { v.Set(v.Now().Add(d)) }

// Set jumps the clock to t (never backwards), firing due timers.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	var due []*virtualTimer
	var rest []*virtualTimer
	for _, vt := range v.timers {
		if !vt.at.After(v.now) {
			due = append(due, vt)
		} else {
			rest = append(rest, vt)
		}
	}
	v.timers = rest
	sort.Slice(due, func(i, j int) bool { return due[i].before(due[j]) })
	now := v.now
	v.mu.Unlock()
	for _, vt := range due {
		vt.ch <- now // capacity 1, only ever one send
	}
}

// Waiters returns the number of armed, unfired timers — tests use it to
// know a component has reached its deadline wait.
func (v *Virtual) Waiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

// FireNext is a discrete-event step: it moves the clock to the earliest
// timer armed under a key not in dead and fires that timer alone (of
// timers due together, the one Advance would fire first). Timers under
// keys in dead are disarmed unfired. ok is false when none is left.
func (v *Virtual) FireNext(dead map[int]bool) (key int, ok bool) {
	v.mu.Lock()
	next := -1
	kept := v.timers[:0]
	for _, vt := range v.timers {
		if dead[vt.key] {
			continue
		}
		if next < 0 || vt.before(kept[next]) {
			next = len(kept)
		}
		kept = append(kept, vt)
	}
	if next < 0 {
		v.timers = kept
		v.mu.Unlock()
		return 0, false
	}
	vt := kept[next]
	v.timers = append(kept[:next], kept[next+1:]...)
	if vt.at.After(v.now) {
		v.now = vt.at
	}
	now := v.now
	v.mu.Unlock()
	vt.ch <- now // capacity 1, only ever one send
	return vt.key, true
}
