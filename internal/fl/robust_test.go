package fl

import (
	"errors"
	"testing"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

func TestParseAggMethod(t *testing.T) {
	cases := []struct {
		name string
		want AggMethod
	}{
		{"", AggFedAvg}, {"fedavg", AggFedAvg}, {"mean", AggFedAvg},
		{"trimmed-mean", AggTrimmedMean}, {"trimmed_mean", AggTrimmedMean}, {"trim", AggTrimmedMean},
		{"median", AggMedian},
	}
	for _, c := range cases {
		got, err := ParseAggMethod(c.name)
		if err != nil || got != c.want {
			t.Fatalf("ParseAggMethod(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
	}
	if _, err := ParseAggMethod("krum"); err == nil {
		t.Fatal("ParseAggMethod accepted an unknown method")
	}
}

// oneTensor builds a single-tensor update holding the given values.
func oneTensor(vals ...float64) []*tensor.Tensor {
	ts := tensor.New(len(vals))
	copy(ts.Data, vals)
	return []*tensor.Tensor{ts}
}

func TestTrimmedMeanDropsOutliers(t *testing.T) {
	ref := oneTensor(0, 0, 0)
	a := newRobustAggregator(ref, AggTrimmedMean, 0.2)
	// Five updates; one poisoner pushes +1000 on every coordinate.
	for _, v := range []float64{1, 2, 3, 4} {
		if err := a.Add(oneTensor(v, v, v), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Add(oneTensor(1000, 1000, 1000), 7); err != nil {
		t.Fatal(err)
	}
	// trim 0.2 of 5 → drop 1 from each end: keep {2,3,4} → mean 3,
	// independent of the poisoner's self-reported weight.
	mean, err := a.Mean()
	if err != nil {
		t.Fatal(err)
	}
	for j, got := range mean[0].Data {
		if got != 3 {
			t.Fatalf("coord %d = %v, want 3", j, got)
		}
	}
	if a.Count() != 5 || a.Weight() != 11 {
		t.Fatalf("count/weight = %d/%v, want 5/11", a.Count(), a.Weight())
	}
	if a.Sum() != nil {
		t.Fatal("robust aggregator returned a partial sum")
	}
}

func TestTrimmedMeanClampsLargeTrim(t *testing.T) {
	// trim 0.45 of 2 updates → int(0.9)=0 dropped; with 3 updates
	// int(1.35)=1 from each end leaves exactly the median.
	a := newRobustAggregator(oneTensor(0), AggTrimmedMean, 0.45)
	for _, v := range []float64{-8, 2, 100} {
		if err := a.Add(oneTensor(v), 1); err != nil {
			t.Fatal(err)
		}
	}
	mean, err := a.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if got := mean[0].Data[0]; got != 2 {
		t.Fatalf("trimmed mean = %v, want 2", got)
	}
}

func TestMedianOddAndEven(t *testing.T) {
	a := newRobustAggregator(oneTensor(0), AggMedian, 0)
	for _, v := range []float64{5, -100, 1} {
		if err := a.Add(oneTensor(v), 1); err != nil {
			t.Fatal(err)
		}
	}
	mean, err := a.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if got := mean[0].Data[0]; got != 1 {
		t.Fatalf("odd median = %v, want 1", got)
	}

	a = newRobustAggregator(oneTensor(0), AggMedian, 0)
	for _, v := range []float64{4, -100, 2, 100} {
		if err := a.Add(oneTensor(v), 1); err != nil {
			t.Fatal(err)
		}
	}
	mean, err = a.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if got := mean[0].Data[0]; got != 3 {
		t.Fatalf("even median = %v, want 3", got)
	}
}

func TestRobustAggregatorRejects(t *testing.T) {
	a := newRobustAggregator(oneTensor(0, 0), AggMedian, 0)
	if _, err := a.Mean(); err == nil {
		t.Fatal("Mean of zero updates succeeded")
	}
	if err := a.Add(oneTensor(1), 1); err == nil {
		t.Fatal("accepted tensor-count mismatch")
	}
	if err := a.Add([]*tensor.Tensor{tensor.New(3)}, 1); err == nil {
		t.Fatal("accepted shape mismatch")
	}
	if err := a.Add(oneTensor(1, 1), 0); err == nil {
		t.Fatal("accepted zero weight")
	}
}

func TestRobustAccumulateQ8Materialises(t *testing.T) {
	a := newRobustAggregator(oneTensor(0, 0), AggMedian, 0)
	// Constant tensors dequantise exactly under q8.
	for _, v := range []float64{-2, 0, 2} {
		if err := a.Accumulate(views(wire.CodecQ8, oneTensor(v, v)), 1); err != nil {
			t.Fatal(err)
		}
	}
	mean, err := a.Mean()
	if err != nil {
		t.Fatal(err)
	}
	if got := mean[0].Data[0]; got != 0 {
		t.Fatalf("q8 median = %v, want 0", got)
	}
	if a.Count() != 3 {
		t.Fatalf("count = %d, want 3", a.Count())
	}
	if err := a.Accumulate(views(wire.CodecQ8, []*tensor.Tensor{tensor.New(3)}), 1); err == nil {
		t.Fatal("accepted q8 shape mismatch")
	}
}

func TestRobustModeExclusions(t *testing.T) {
	open := func(cfg ServerConfig) error {
		srv := NewServer(newState(1), cfg)
		_, err := srv.Open(nil)
		return err
	}
	if err := open(ServerConfig{Aggregation: AggMedian, SecAgg: true}); !errors.Is(err, ErrRobustSecAgg) {
		t.Fatalf("SecAgg+robust: %v, want ErrRobustSecAgg", err)
	}
	if err := open(ServerConfig{Aggregation: AggMedian, Partials: true}); !errors.Is(err, ErrRobustPartials) {
		t.Fatalf("Partials+robust: %v, want ErrRobustPartials", err)
	}
	if err := open(ServerConfig{Aggregation: AggMedian, Async: AsyncConfig{Enabled: true}}); !errors.Is(err, ErrRobustAsync) {
		t.Fatalf("Async+robust: %v, want ErrRobustAsync", err)
	}
	if err := open(ServerConfig{Aggregation: AggTrimmedMean}); !errors.Is(err, ErrBadTrim) {
		t.Fatalf("trim 0: %v, want ErrBadTrim", err)
	}
	if err := open(ServerConfig{Aggregation: AggTrimmedMean, TrimFraction: 0.5}); !errors.Is(err, ErrBadTrim) {
		t.Fatalf("trim 0.5: %v, want ErrBadTrim", err)
	}
}

// TestMedianSessionShrugsOffPoisoner runs a full session: four honest
// clients pushing +1 per round, one pushing -1000. FedAvg would drag
// every weight down ~200 per round; the median lands exactly on the
// honest delta.
func TestMedianSessionShrugsOffPoisoner(t *testing.T) {
	state := newState(10)
	srv := NewServer(state, ServerConfig{Rounds: 2, Aggregation: AggMedian})
	trainers := []*testTrainer{
		newTestTrainer("h1", false, 1),
		newTestTrainer("h2", false, 1),
		newTestTrainer("h3", false, 1),
		newTestTrainer("h4", false, 1),
		newTestTrainer("poison", false, -1000),
	}
	if _, err := runSession(t, srv, trainers); err != nil {
		t.Fatal(err)
	}
	// Median of {1,1,1,1,-1000} is 1: after 2 rounds, 10 → 12 exactly.
	if got := state[0].Data[0]; got != 12 {
		t.Fatalf("state = %v, want 12 (median ignored the poisoner)", got)
	}
	for _, st := range srv.Trace() {
		if st.Responded != 5 {
			t.Fatalf("round %d responded = %d, want 5", st.Round, st.Responded)
		}
	}
}
