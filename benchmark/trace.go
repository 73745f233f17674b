package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer.
// Times are nanoseconds since the tracer's epoch.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Trace   string `json:"trace"`  // workload/session/round
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer records spans in memory; they are written out once, when the
// run ends. A nil *tracer is the untraced run: every method is a no-op,
// and the workloads install no conn or trainer wrappers at all.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	// roots maps session/round to the operation's root span (ID and
	// start) so client goroutines can parent their spans to the round
	// that caused them.
	roots map[[2]int][2]int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), roots: make(map[[2]int][2]int64)}
}

// now is the tracer's clock; 0 in the untraced run.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, session, round int, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, StartNS: start, EndNS: end,
		Trace: fmt.Sprintf("%s/%d/%d", t.workload, session, round),
	})
	return id
}

// openRoot records an operation's root span before the operation runs
// and registers it for rootOf; closeRoot sets its end.
func (t *tracer) openRoot(name string, session, round int, start int64) int {
	if t == nil {
		return 0
	}
	id := t.add(name, 0, session, round, start, start)
	t.mu.Lock()
	t.roots[[2]int{session, round}] = [2]int64{int64(id), start}
	t.mu.Unlock()
	return id
}

func (t *tracer) closeRoot(id int, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndNS = end
	t.mu.Unlock()
}

// rootOf returns the root span of the session's round and its start
// (zeros if none).
func (t *tracer) rootOf(session, round int) (id int, start int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.roots[[2]int{session, round}]
	return int(r[0]), r[1]
}

// durations returns the durations, in seconds, of every span with the
// given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// selfTimes returns, for every span with the given name, its duration
// minus the part of that interval its child spans cover, in seconds.
func (t *tracer) selfTimes(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS-covered(children[s.ID], s.StartNS, s.EndNS))/1e9)
		}
	}
	return out
}

// coverage returns the median share of the named root spans' duration
// that their direct children account for.
func (t *tracer) coverage(name string) float64 {
	if t == nil {
		return 0
	}
	self := t.selfTimes(name)
	durs := t.durations(name)
	var shares []float64
	for i, d := range durs {
		if d > 0 {
			shares = append(shares, 1-self[i]/d)
		}
	}
	return median(shares)
}

// write stores the spans as JSON lines in dir/spans-<workload>.jsonl.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, "spans-"+t.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
