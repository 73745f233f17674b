package obs

import (
	"fmt"

	"github.com/gradsec/gradsec/internal/wire"
)

// Snapshot is a portable point-in-time (or delta) copy of a Registry:
// family schemas plus per-instrument values, with histograms carried as
// sparse bucket vectors. Snapshots encode to a compact wire blob that
// rides the federation protocol's trailing telemetry fields, and merge
// into any Registry — the same log-bucket layout on both sides makes
// the fold exact, so per-shard histograms compose associatively up
// arbitrary aggregation trees.
type Snapshot struct {
	Families []SnapFamily
}

// SnapFamily is one metric family in a snapshot.
type SnapFamily struct {
	Name        string
	Help        string
	Kind        Kind
	LabelKeys   []string
	Instruments []SnapInstrument
}

// SnapInstrument is one (family, label values) cell. Counter holds the
// counter value (or delta), Gauge the gauge reading; histograms carry
// parallel sparse arrays: BucketIdx[i] has BucketN[i] samples, with an
// optional exemplar (ExRound[i] = round+1, 0 = none; ExVal[i] = value).
type SnapInstrument struct {
	LabelVals []string
	Counter   uint64
	Gauge     int64
	BucketIdx []uint32
	BucketN   []uint64
	ExRound   []uint64
	ExVal     []int64
	Count     uint64
	Sum       int64
}

// snapshotVersion is the telemetry wire-format version byte.
const snapshotVersion = 1

// snapInstrument builds the sparse representation of one instrument.
func snapInstrument(kind Kind, inst *instrument) SnapInstrument {
	si := SnapInstrument{LabelVals: inst.labelVals}
	switch kind {
	case KindCounter:
		si.Counter = inst.counter.Value()
	case KindGauge:
		si.Gauge = inst.gauge.Value()
	case KindHistogram:
		counts, count, sum := inst.hist.snapshot()
		si.Count, si.Sum = count, sum
		for b := range counts {
			er := inst.hist.exRound[b].Load()
			if counts[b] == 0 && er == 0 {
				continue
			}
			si.BucketIdx = append(si.BucketIdx, uint32(b))
			si.BucketN = append(si.BucketN, counts[b])
			si.ExRound = append(si.ExRound, er)
			si.ExVal = append(si.ExVal, inst.hist.exVal[b].Load())
		}
	}
	return si
}

// TakeSnapshot copies the registry's current cumulative state. A nil
// registry yields an empty snapshot.
func TakeSnapshot(r *Registry) *Snapshot {
	s := &Snapshot{}
	for _, f := range r.snapshotFamilies() {
		sf := SnapFamily{Name: f.name, Help: f.help, Kind: f.kind, LabelKeys: f.labelKeys}
		for _, inst := range f.sortedInstruments() {
			sf.Instruments = append(sf.Instruments, snapInstrument(f.kind, inst))
		}
		if len(sf.Instruments) > 0 {
			s.Families = append(s.Families, sf)
		}
	}
	return s
}

// Encode serialises the snapshot to the telemetry wire format.
func (s *Snapshot) Encode() []byte { return wire.Encode(wire.CodecF64, s.walk) }

// DecodeSnapshot parses a telemetry blob produced by Snapshot.Encode.
// Decoding is hostile-input safe: every list count is bounded by the
// remaining payload (wire.List), bucket indices are bounded by the
// histogram layout, and corrupt input returns an error rather than
// panicking.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := wire.Decode(data, wire.CodecF64, s.walk); err != nil {
		return nil, fmt.Errorf("obs: decoding telemetry: %w", err)
	}
	return s, nil
}

// walk is the telemetry wire format: a version byte, then the families.
func (s *Snapshot) walk(f *wire.Fields) {
	v := uint64(snapshotVersion)
	f.Uvarint(&v)
	if v != snapshotVersion {
		f.Fail("unsupported telemetry version")
	}
	wire.List(f, &s.Families, walkFamily)
	f.End()
}

func walkFamily(f *wire.Fields, fam *SnapFamily) {
	f.String(&fam.Name)
	f.String(&fam.Help)
	f.Uint8((*uint8)(&fam.Kind))
	if fam.Kind > KindHistogram {
		f.Fail("telemetry family kind")
	}
	wire.List(f, &fam.LabelKeys, (*wire.Fields).String)
	wire.List(f, &fam.Instruments, func(f *wire.Fields, inst *SnapInstrument) {
		walkInstrument(f, fam.Kind, len(fam.LabelKeys), inst)
	})
}

// walkInstrument walks one cell: its label values (one per family key,
// no count on the wire), then the value its kind carries — histograms
// as parallel sparse bucket arrays.
func walkInstrument(f *wire.Fields, kind Kind, keys int, inst *SnapInstrument) {
	// keys strings were just decoded, so keys is within the payload.
	if f.Decoding() && keys > 0 {
		inst.LabelVals = make([]string, keys)
	}
	for i := range inst.LabelVals {
		f.String(&inst.LabelVals[i])
	}
	switch kind {
	case KindCounter:
		f.Uvarint(&inst.Counter)
	case KindGauge:
		f.Int64(&inst.Gauge)
	case KindHistogram:
		f.Uvarint(&inst.Count)
		f.Int64(&inst.Sum)
		nb := len(inst.BucketIdx)
		f.Count(&nb)
		if nb > numBuckets {
			f.Fail("telemetry bucket count")
		}
		if f.Decoding() && nb > 0 && f.Err() == nil {
			inst.BucketIdx, inst.BucketN = make([]uint32, nb), make([]uint64, nb)
			inst.ExRound, inst.ExVal = make([]uint64, nb), make([]int64, nb)
		}
		for b := range inst.BucketIdx {
			idx := uint64(inst.BucketIdx[b])
			f.Uvarint(&idx)
			if idx >= numBuckets {
				f.Fail("telemetry bucket index")
			}
			inst.BucketIdx[b] = uint32(idx)
			f.Uvarint(&inst.BucketN[b])
			f.Uvarint(&inst.ExRound[b])
			f.Int64(&inst.ExVal[b])
		}
	}
}

// MergeSnapshot folds a snapshot into the registry, extending each
// family's label schema with the flat "key, value" pairs in extraKV —
// the tier/shard provenance labels an aggregator stamps on telemetry
// from below. An extra key already present in a family's schema is
// skipped for that family (the innermost origin wins), so telemetry
// that was already labeled at a lower tier passes through unchanged.
// Counters and histogram buckets are added (snapshot deltas compose
// associatively up aggregation trees); gauges are set absolutely.
// Instruments whose label values do not match their family schema are
// dropped; a local family registered with a conflicting schema degrades
// to a detached cell, per the registry's usual policy.
func (r *Registry) MergeSnapshot(s *Snapshot, extraKV ...string) {
	if r == nil || s == nil {
		return
	}
	ekeys, evals := labelPairs(extraKV)
	for _, f := range s.Families {
		keys := f.LabelKeys
		var addK, addV []string
		for i, ek := range ekeys {
			present := false
			for _, k := range keys {
				if k == ek {
					present = true
					break
				}
			}
			if !present {
				addK = append(addK, ek)
				addV = append(addV, evals[i])
			}
		}
		if len(addK) > 0 {
			keys = append(append(make([]string, 0, len(keys)+len(addK)), keys...), addK...)
		}
		for _, inst := range f.Instruments {
			if len(inst.LabelVals) != len(f.LabelKeys) {
				continue
			}
			vals := inst.LabelVals
			if len(addV) > 0 {
				vals = append(append(make([]string, 0, len(vals)+len(addV)), vals...), addV...)
			}
			cell := r.getCell(f.Name, f.Help, f.Kind, keys, vals)
			switch f.Kind {
			case KindCounter:
				cell.counter.Add(inst.Counter)
			case KindGauge:
				cell.gauge.Set(inst.Gauge)
			case KindHistogram:
				cell.hist.mergeRaw(inst.BucketIdx, inst.BucketN, inst.ExRound, inst.ExVal, inst.Count, inst.Sum)
			}
		}
	}
}

// prevInst is the per-instrument cumulative state a Snapshotter diffs
// against.
type prevInst struct {
	counter uint64
	gauge   int64
	counts  [numBuckets]uint64
	sum     int64
}

// Snapshotter produces delta-encoded telemetry from a registry: each
// Delta() call emits only what changed since the previous call, so an
// upstream aggregator can add successive deltas without double-counting
// and the per-round wire cost is proportional to activity, not registry
// size. The zero of everything is "send nothing": a quiet round costs
// zero bytes.
type Snapshotter struct {
	reg  *Registry
	prev map[string]*prevInst // keyed by family name + labelSep + joined vals
}

// NewSnapshotter wraps a registry (nil allowed — Delta then returns
// nil).
func NewSnapshotter(reg *Registry) *Snapshotter {
	return &Snapshotter{reg: reg, prev: make(map[string]*prevInst)}
}

// Delta returns the encoded snapshot of changes since the last call,
// or nil when nothing changed (or the registry is nil). Counter and
// histogram values are diffs; gauges are sent absolutely whenever they
// moved. Exemplars are sent absolutely for changed buckets (they merge
// by newest round, so resending is idempotent).
func (sn *Snapshotter) Delta() []byte {
	if sn == nil || sn.reg == nil {
		return nil
	}
	s := &Snapshot{}
	for _, f := range sn.reg.snapshotFamilies() {
		sf := SnapFamily{Name: f.name, Help: f.help, Kind: f.kind, LabelKeys: f.labelKeys}
		for _, inst := range f.sortedInstruments() {
			key := f.name + labelSep + joinVals(inst.labelVals)
			p := sn.prev[key]
			if p == nil {
				p = &prevInst{}
				sn.prev[key] = p
			}
			si := SnapInstrument{LabelVals: inst.labelVals}
			changed := false
			switch f.kind {
			case KindCounter:
				cur := inst.counter.Value()
				if cur != p.counter {
					si.Counter = cur - p.counter
					p.counter = cur
					changed = true
				}
			case KindGauge:
				cur := inst.gauge.Value()
				if cur != p.gauge {
					si.Gauge = cur
					p.gauge = cur
					changed = true
				}
			case KindHistogram:
				counts, _, sum := inst.hist.snapshot()
				var dcount uint64
				for b := range counts {
					d := counts[b] - p.counts[b]
					if d == 0 {
						continue
					}
					dcount += d
					si.BucketIdx = append(si.BucketIdx, uint32(b))
					si.BucketN = append(si.BucketN, d)
					si.ExRound = append(si.ExRound, inst.hist.exRound[b].Load())
					si.ExVal = append(si.ExVal, inst.hist.exVal[b].Load())
					p.counts[b] = counts[b]
				}
				if dcount != 0 {
					si.Count = dcount
					si.Sum = sum - p.sum
					p.sum = sum
					changed = true
				}
			}
			if changed {
				sf.Instruments = append(sf.Instruments, si)
			}
		}
		if len(sf.Instruments) > 0 {
			s.Families = append(s.Families, sf)
		}
	}
	if len(s.Families) == 0 {
		return nil
	}
	return s.Encode()
}
