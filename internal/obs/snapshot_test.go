package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestHistogramMergeWhileObserving pins the snapshot/merge consistency
// fix: merging from a histogram that is concurrently being observed
// must still produce a destination whose count equals the sum of its
// buckets. Run under -race this also proves the merge path is
// data-race-free against live observers.
func TestHistogramMergeWhileObserving(t *testing.T) {
	src := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					src.ObserveEx(rng.Int63n(1<<30), int(rng.Int63n(100)))
				}
			}
		}(int64(g))
	}
	for i := 0; i < 200; i++ {
		dst := NewHistogram()
		dst.Merge(src)
		counts, _, _ := dst.snapshot()
		var total uint64
		for _, n := range counts {
			total += n
		}
		if got := dst.Count(); got != total {
			t.Fatalf("iteration %d: merged count %d != sum of buckets %d", i, got, total)
		}
	}
	close(stop)
	wg.Wait()
}

// fillRegistry populates a registry with a deterministic mixed workload.
func fillRegistry(reg *Registry, seed int64, rounds int) {
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		reg.Counter("t_rounds_total", "rounds", "result", "ok").Inc()
		reg.Gauge("t_roster", "roster").Set(rng.Int63n(100))
		for _, phase := range []string{"broadcast", "collect"} {
			h := reg.Histogram("t_phase_ns", "phase latency", "phase", phase)
			for i := 0; i < 1+rng.Intn(5); i++ {
				h.ObserveEx(rng.Int63n(1<<40), r)
			}
		}
	}
}

// flatten renders a registry's exposition for comparison.
func flatten(t *testing.T, reg *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSnapshotRoundTrip(t *testing.T) {
	reg := NewRegistry()
	fillRegistry(reg, 11, 20)
	snap := TakeSnapshot(reg)
	enc := snap.Encode()
	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, dec) {
		t.Fatalf("snapshot round-trip mismatch:\n%#v\nvs\n%#v", snap, dec)
	}
	// Merging the decoded snapshot into an empty registry reproduces the
	// original exposition exactly (no extra labels).
	dst := NewRegistry()
	dst.MergeSnapshot(dec)
	if a, b := flatten(t, reg), flatten(t, dst); a != b {
		t.Fatalf("merged exposition differs:\n%s\nvs\n%s", a, b)
	}
}

// TestSnapshotMergeCommutes is the merge-then-encode == encode-then-
// merge property: folding N live registries into one and snapshotting
// equals snapshotting each and folding the snapshots — the guarantee
// that makes fleet-wide families exact regardless of where the fold
// happens.
func TestSnapshotMergeCommutes(t *testing.T) {
	const parts = 4
	regs := make([]*Registry, parts)
	for i := range regs {
		regs[i] = NewRegistry()
		fillRegistry(regs[i], int64(100+i), 10+i)
	}

	// Path A: merge decoded snapshots into one registry.
	viaSnapshots := NewRegistry()
	for _, reg := range regs {
		dec, err := DecodeSnapshot(TakeSnapshot(reg).Encode())
		if err != nil {
			t.Fatal(err)
		}
		viaSnapshots.MergeSnapshot(dec)
	}

	// Path B: replay all workloads into one registry directly.
	direct := NewRegistry()
	for i := range regs {
		fillRegistry(direct, int64(100+i), 10+i)
	}

	// Counters and histogram buckets must agree exactly. Gauges are
	// last-writer-wins and t_roster differs by fold order, so compare
	// the histogram family and counters through the exposition with the
	// gauge family removed.
	strip := func(text string) string {
		var keep []string
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, "t_roster") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if a, b := strip(flatten(t, viaSnapshots)), strip(flatten(t, direct)); a != b {
		t.Fatalf("merge does not commute with encode:\n%s\nvs\n%s", a, b)
	}
}

func TestSnapshotterDeltas(t *testing.T) {
	reg := NewRegistry()
	sn := NewSnapshotter(reg)
	if b := sn.Delta(); b != nil {
		t.Fatalf("empty registry must yield nil delta, got %d bytes", len(b))
	}

	upstream := NewRegistry()
	fillRegistry(reg, 5, 3)
	d1 := sn.Delta()
	if d1 == nil {
		t.Fatal("first delta missing")
	}
	s1, err := DecodeSnapshot(d1)
	if err != nil {
		t.Fatal(err)
	}
	upstream.MergeSnapshot(s1, "tier", "edge", "shard", "edge-000")

	// No activity → nothing to send.
	if b := sn.Delta(); b != nil {
		t.Fatalf("quiet period must yield nil delta, got %d bytes", len(b))
	}

	fillRegistry(reg, 6, 2)
	d2 := sn.Delta()
	s2, err := DecodeSnapshot(d2)
	if err != nil {
		t.Fatal(err)
	}
	upstream.MergeSnapshot(s2, "tier", "edge", "shard", "edge-000")

	// Successive deltas folded upstream equal one cumulative fold: the
	// counter and histogram totals must match the live registry.
	wantRounds := reg.Counter("t_rounds_total", "rounds", "result", "ok").Value()
	gotRounds := upstream.Counter("t_rounds_total", "rounds", "result", "ok", "tier", "edge", "shard", "edge-000").Value()
	if gotRounds != wantRounds {
		t.Fatalf("upstream counter %d, want %d", gotRounds, wantRounds)
	}
	for _, phase := range []string{"broadcast", "collect"} {
		want := reg.Histogram("t_phase_ns", "phase latency", "phase", phase)
		got := upstream.Histogram("t_phase_ns", "phase latency", "phase", phase, "tier", "edge", "shard", "edge-000")
		if got.Count() != want.Count() || got.Sum() != want.Sum() {
			t.Fatalf("phase %s: upstream %d/%d, want %d/%d", phase, got.Count(), got.Sum(), want.Count(), want.Sum())
		}
	}
}

// TestMergeSnapshotLabelPassThrough pins the innermost-origin-wins
// policy: extra provenance keys already present in a family's schema
// are not re-applied, so client-tier labels survive transit through the
// edge and root unchanged.
func TestMergeSnapshotLabelPassThrough(t *testing.T) {
	client := NewRegistry()
	client.Counter("t_client_steps_total", "steps").Add(7)

	edge := NewRegistry()
	edge.MergeSnapshot(TakeSnapshot(client), "tier", "client", "shard", "device-3")

	root := NewRegistry()
	root.MergeSnapshot(TakeSnapshot(edge), "tier", "edge", "shard", "edge-001")

	got := root.Counter("t_client_steps_total", "steps", "tier", "client", "shard", "device-3").Value()
	if got != 7 {
		t.Fatalf("client labels were rewritten in transit: %s", flatten(t, root))
	}
}

// TestDecodeSnapshotHostile feeds structurally corrupt telemetry blobs
// to the decoder; every case must fail cleanly (error, no panic, no
// huge allocation).
func TestDecodeSnapshotHostile(t *testing.T) {
	valid := func() []byte {
		reg := NewRegistry()
		fillRegistry(reg, 3, 5)
		return TakeSnapshot(reg).Encode()
	}()
	cases := map[string][]byte{
		"empty":            {},
		"bad version":      {0xEE, 0x00},
		"huge family list": {snapshotVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"truncated":        valid[:len(valid)/2],
		"trailing bytes":   append(append([]byte{}, valid...), 0x01),
	}
	for name, data := range cases {
		if s, err := DecodeSnapshot(data); err == nil {
			t.Fatalf("%s: decode accepted hostile input: %#v", name, s)
		}
	}
	// Bit flips anywhere must never panic.
	for i := 0; i < len(valid); i++ {
		mut := append([]byte{}, valid...)
		mut[i] ^= 0x80
		_, _ = DecodeSnapshot(mut)
	}
}

func FuzzTelemetryDecode(f *testing.F) {
	reg := NewRegistry()
	fillRegistry(reg, 9, 8)
	f.Add(TakeSnapshot(reg).Encode())
	f.Add([]byte{snapshotVersion, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		// Anything that decodes must merge without panicking, and
		// re-encode to something that decodes again.
		dst := NewRegistry()
		dst.MergeSnapshot(s, "tier", "fuzz")
		if _, err := DecodeSnapshot(TakeSnapshot(dst).Encode()); err != nil {
			t.Fatalf("re-encode of merged fuzz input does not decode: %v", err)
		}
	})
}

// TestGoldenSnapshotFormat pins the telemetry blob's bytes for every
// instrument kind, recorded before the snapshot moved onto the field
// walker, and the blob must decode back to its snapshot exactly.
func TestGoldenSnapshotFormat(t *testing.T) {
	snap := &Snapshot{Families: []SnapFamily{
		{Name: "t_rounds_total", Help: "rounds", Kind: KindCounter, LabelKeys: []string{"result"},
			Instruments: []SnapInstrument{{LabelVals: []string{"ok"}, Counter: 300}, {LabelVals: []string{"failed"}, Counter: 1}}},
		{Name: "t_roster", Help: "roster", Kind: KindGauge, Instruments: []SnapInstrument{{Gauge: -5}}},
		{Name: "t_phase_ns", Help: "phase latency", Kind: KindHistogram, LabelKeys: []string{"phase", "tier"},
			Instruments: []SnapInstrument{{
				LabelVals: []string{"collect", "edge"}, Count: 7, Sum: -12,
				BucketIdx: []uint32{0, 63, 200}, BucketN: []uint64{3, 3, 1},
				ExRound: []uint64{0, 9, 1 << 40}, ExVal: []int64{0, -1 << 40, 12345},
			}}},
	}}
	blob := snap.Encode()
	h := sha256.Sum256(blob)
	if got, want := hex.EncodeToString(h[:]), "2f6831aec07ddfb4de7228d312dfd098030323bdedde7c8897c9b023272272cc"; got != want {
		t.Errorf("hash %s, recorded %s", got, want)
	}
	dec, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, snap) {
		t.Fatalf("decode = %+v, want %+v", dec, snap)
	}
}
