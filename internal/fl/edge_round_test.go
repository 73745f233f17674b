package fl

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

func edgeTestModel() []*tensor.Tensor {
	return []*tensor.Tensor{tensor.New(2, 3), tensor.New(4)}
}

// scriptedEdge enrols under name and answers every ShardDown with the
// partial build returns, until the server hangs up.
func scriptedEdge(conn Conn, name string, build func(*ShardDown) *PartialUp) {
	defer conn.Close()
	msg, err := conn.Recv()
	if err != nil {
		return
	}
	_ = conn.Send(&Attest{DeviceID: name, Codec: msg.(*Challenge).Codec})
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		down, ok := msg.(*ShardDown)
		if !ok {
			return // Done
		}
		_ = conn.Send(build(down))
	}
}

// goodPartial is an honest shard's answer: 2 of 3 sampled clients
// folded at total weight 2, every coordinate summing to 0.5 (plain) or
// its fixed-point level (masked).
func goodPartial(masked bool) func(*ShardDown) *PartialUp {
	return func(down *ShardDown) *PartialUp {
		up := &PartialUp{Round: down.Round, Weight: 2, Count: 2, Sampled: 3, Dropped: 1}
		for _, p := range down.Model {
			t := tensor.Full(0.5, p.Shape...)
			if masked {
				up.ScaleBits = secagg.DefaultScaleBits
				up.Levels = append(up.Levels, secagg.Quantise(t, secagg.ScaleFor(secagg.DefaultScaleBits), 1))
			} else {
				up.Sum = append(up.Sum, t)
			}
		}
		return up
	}
}

// runEdgeSession runs one round of an edge-peer server over two honest
// edges plus the given extra ones, returning the round's stats, the
// model it left, and why each dropped edge was dropped.
func runEdgeSession(t *testing.T, masked bool, extra ...func(*ShardDown) *PartialUp) (RoundStats, []*tensor.Tensor, map[string]error) {
	t.Helper()
	builds := append([]func(*ShardDown) *PartialUp{goodPartial(masked), goodPartial(masked)}, extra...)
	names := []string{"edge-a", "edge-b", "edge-x"}
	conns := make([]Conn, len(builds))
	var edges sync.WaitGroup
	for i, build := range builds {
		serverSide, edgeSide := Pipe()
		conns[i] = serverSide
		edges.Add(1)
		go func(name string, build func(*ShardDown) *PartialUp) {
			defer edges.Done()
			scriptedEdge(edgeSide, name, build)
		}(names[i], build)
	}
	state := edgeTestModel()
	dropped := make(map[string]error)
	srv := NewServer(state, ServerConfig{
		EdgePeers:  true,
		MinClients: 2,
		SecAgg:     masked,
		Hooks:      Hooks{ClientQuarantined: func(edge string, reason error) { dropped[edge] = reason }},
	})
	if n, err := srv.Open(conns); err != nil || n != len(builds) {
		t.Fatalf("Open = %d, %v; want %d edges", n, err, len(builds))
	}
	if _, err := srv.StepRound(0); err != nil {
		t.Fatalf("StepRound: %v", err)
	}
	if err := srv.Close(nil); err != nil {
		t.Fatal(err)
	}
	edges.Wait()
	return srv.Trace()[0], state, dropped
}

// TestHostilePartialUpLeavesRoundUntouched: a PartialUp is hostile
// input. One whose counters cannot be real, or whose sum does not fit
// the session, is refused with ErrBadPartial and its edge dropped —
// and nothing of it, accounting included, reaches the round: stats and
// model equal those of the same round without that edge.
func TestHostilePartialUpLeavesRoundUntouched(t *testing.T) {
	// mutate turns an honest partial into the hostile one under test.
	hostile := func(masked bool, mutate func(*PartialUp)) func(*ShardDown) *PartialUp {
		return func(down *ShardDown) *PartialUp {
			up := goodPartial(masked)(down)
			mutate(up)
			return up
		}
	}
	cases := []struct {
		name   string
		masked bool
		mutate func(*PartialUp)
	}{
		{"oversize Count", false, func(up *PartialUp) { up.Count, up.Sampled = 1<<63, 1<<63 }},
		{"oversize Sampled", false, func(up *PartialUp) { up.Sampled = 1 << 63 }},
		{"oversize Quarantined", false, func(up *PartialUp) { up.Quarantined = 1 << 40 }},
		{"Count > Sampled", false, func(up *PartialUp) { up.Count = up.Sampled + 1 }},
		{"wrong-shape Sum", false, func(up *PartialUp) { up.Sum[1] = tensor.New(5) }},
		{"infinite weight", false, func(up *PartialUp) { up.Weight = math.Inf(1) }},
		{"masked partial in a plain session", false, func(up *PartialUp) {
			up.Sum, up.Levels = nil, []*wire.U64Tensor{{Shape: []int{1}, Levels: []uint64{1}}}
		}},
		{"plain partial in a masked session", true, func(up *PartialUp) {
			up.Levels, up.Sum = nil, []*tensor.Tensor{tensor.New(2, 3), tensor.New(4)}
		}},
		{"wrong scale bits", true, func(up *PartialUp) { up.ScaleBits-- }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantStats, wantModel, _ := runEdgeSession(t, tc.masked)
			if wantStats.Shards != 2 || wantStats.Sampled != 6 || wantStats.Responded != 4 || wantStats.Dropped != 2 {
				t.Fatalf("reference round stats = %+v", wantStats)
			}
			stats, model, dropped := runEdgeSession(t, tc.masked, hostile(tc.masked, tc.mutate))
			if !reflect.DeepEqual(stats, wantStats) {
				t.Fatalf("hostile partial leaked into the round:\n got  %+v\n want %+v", stats, wantStats)
			}
			for i := range model {
				if !reflect.DeepEqual(model[i].Data, wantModel[i].Data) {
					t.Fatalf("model tensor %d = %v, want %v", i, model[i].Data, wantModel[i].Data)
				}
			}
			if len(dropped) != 1 || !errors.Is(dropped["edge-x"], ErrBadPartial) {
				t.Fatalf("dropped = %v, want edge-x alone with ErrBadPartial", dropped)
			}
		})
	}
}

// TestStatsSchemaRoundTrip: RoundStats and journal.Stats are one schema
// kept in two packages (the journal cannot import fl), joined by two
// hand-written converters. Every journal.Stats field must survive
// to→from, and every RoundStats field except the wire byte counters
// (observability, deliberately not journaled) must survive from→to, so
// a field added to either struct cannot be silently dropped on the way
// to disk or back.
func TestStatsSchemaRoundTrip(t *testing.T) {
	// fill sets every field of the struct behind v to a distinct
	// non-zero value.
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Int:
				f.SetInt(int64(i + 1))
			case reflect.Uint64:
				f.SetUint(uint64(i + 1))
			case reflect.Float64:
				f.SetFloat(float64(i) + 1.5)
			default:
				t.Fatalf("%s.%s has kind %s: teach this test to fill it", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	var js journal.Stats
	fill(reflect.ValueOf(&js).Elem())
	if got := toJournalStats(fromJournalStats(js)); got != js {
		t.Fatalf("journal.Stats does not survive the converters:\n got  %+v\n want %+v", got, js)
	}

	var rs RoundStats
	fill(reflect.ValueOf(&rs).Elem())
	back := reflect.ValueOf(fromJournalStats(toJournalStats(rs)))
	want := reflect.ValueOf(rs)
	for i := 0; i < want.NumField(); i++ {
		name := want.Type().Field(i).Name
		if name == "BytesUp" || name == "BytesDown" {
			continue
		}
		if got := back.Field(i).Interface(); got != want.Field(i).Interface() {
			t.Errorf("RoundStats.%s = %v after the journal round trip, want %v", name, got, want.Field(i).Interface())
		}
	}
}
