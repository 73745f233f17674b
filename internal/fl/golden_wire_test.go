package fl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// fill returns n bytes counting up from start — distinct, recognisable
// payloads for the example table.
func fill(n int, start byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = start + byte(i)
	}
	return b
}

// wireExamples is one message of every type with every field set,
// trailing fields included. It is the golden table of the wire format
// and the seed corpus of FuzzDecodeMessage; a new message type or field
// belongs here (docs/WIRE.md).
func wireExamples() []Message {
	quote := func(id string, start byte) tz.Quote {
		q := tz.Quote{DeviceID: id, Nonce: fill(16, start+32), MAC: fill(32, start+64)}
		copy(q.Measurement[:], fill(32, start))
		return q
	}
	model := func(v float64) []*tensor.Tensor {
		return []*tensor.Tensor{
			tensor.FromSlice([]float64{v, -v / 3, 1e-9, 1e300, -0.0, 2.5}, 2, 3),
			nil,
			tensor.Full(v/7, 4),
		}
	}
	var seed [32]byte
	copy(seed[:], fill(32, 0x90))
	return []Message{
		&Challenge{
			Nonce: fill(16, 1), ServerPub: fill(32, 20), RequireTEE: true,
			Codec: wire.CodecQ8, SecAgg: true, ScaleBits: 24, MaskDegree: 6,
			AggQuote: quote("agg-enclave", 0x40),
		},
		&Attest{
			DeviceID: "pi-a", HasTEE: true, Quote: quote("pi-a", 0x10),
			ClientPub: fill(32, 0x70), Codec: wire.CodecF32, MaskPub: fill(32, 0xA0), Cap: wire.CodecQ8,
		},
		&Reject{Reason: "no TEE"},
		&ModelDown{
			Round: 300, Plain: model(1.25), Sealed: fill(40, 3), Plan: fill(12, 9),
			Cohort:  roster(secagg.Peer{Device: "pi-a", Pub: fill(32, 5)}, secagg.Peer{Device: "pi-bb", Pub: fill(32, 55)}),
			Version: 1 << 33, Trace: 0xDEADBEEFCAFE, MaskDegree: 4,
		},
		&GradUp{
			Round: 300, Plain: model(-0.75), Sealed: fill(24, 7),
			Examples: 640, Version: 299, Telemetry: fill(10, 0x33),
		},
		&Done{Final: model(3)},
		&ErrorMsg{Text: "boom"},
		&MaskedUp{
			Round: 129,
			Levels: []*wire.U64Tensor{
				{Shape: []int{2, 2}, Levels: []uint64{0, 1, 1 << 63, ^uint64(0)}},
				nil,
			},
			Sealed: fill(8, 0x11), Examples: 3,
			Shares: []secagg.WrappedShare{
				{To: "pi-b", Blob: fill(secagg.WrappedShareLen, 0x21)},
				{To: "pi-c", Blob: fill(secagg.WrappedShareLen, 0x31)},
			},
		},
		&MaskRecon{
			Round:     129,
			Dropped:   []string{"pi-c", "pi-d"},
			Survivors: []secagg.SeedEnvelope{{Owner: "pi-b", Blob: fill(secagg.WrappedShareLen, 0x41)}},
		},
		&MaskShares{
			Round:      129,
			Shares:     []secagg.PairShare{{Device: "pi-c", Seed: seed}},
			SeedShares: []secagg.SeedShare{{Owner: "pi-b", X: 3, Data: fill(secagg.SeedShareLen, 0x51)}},
		},
		&ShardDown{Round: 17, Model: model(0.5), Trace: 77},
		&PartialUp{
			Round: 17, Sum: model(8),
			Levels:    []*wire.U64Tensor{{Shape: []int{3}, Levels: []uint64{7, 8, 1 << 40}}},
			ScaleBits: 24, Weight: 12.5, Count: 5, Sampled: 8, Dropped: 2,
			Quarantined: 1, LateDiscarded: 1, Reconciled: 2, Probation: 1, Telemetry: fill(6, 0x61),
		},
		&CodecSwitch{Codec: wire.CodecQ8},
	}
}

var goldenCodecs = []wire.Codec{wire.CodecF64, wire.CodecF32, wire.CodecQ8}

// goldenWireHashes are the SHA-256 of every example's encoding under
// every codec, recorded before the messages moved onto the field
// walker: the wire format may not move by a byte.
var goldenWireHashes = map[string]string{
	"*fl.Attest/f32":               "a19bd66fba8aecdaa19e62697628596b55d2c4440bcd0c9afe244fd7d20cae9a",
	"*fl.Attest/f64":               "a19bd66fba8aecdaa19e62697628596b55d2c4440bcd0c9afe244fd7d20cae9a",
	"*fl.Attest/q8":                "a19bd66fba8aecdaa19e62697628596b55d2c4440bcd0c9afe244fd7d20cae9a",
	"*fl.Challenge/f32":            "1bb69e2c3346f721db18609e6158349b222f343e704195b9244b7854357e1122",
	"*fl.Challenge/f64":            "1bb69e2c3346f721db18609e6158349b222f343e704195b9244b7854357e1122",
	"*fl.Challenge/q8":             "1bb69e2c3346f721db18609e6158349b222f343e704195b9244b7854357e1122",
	"*fl.CodecSwitch/f32":          "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
	"*fl.CodecSwitch/f64":          "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
	"*fl.CodecSwitch/q8":           "dbc1b4c900ffe48d575b5da5c638040125f65db0fe3e24494b76ea986457d986",
	"*fl.Done/f32":                 "a292cba0cba51e0f5201dd104616bb1c252252b0a87f9a410d37393b0d18c407",
	"*fl.Done/f64":                 "8a317f63c2da97d9e99a02303811780e550cf01495d3d22c1d3ad2a108691186",
	"*fl.Done/q8":                  "39e562d58e94da2f58a141e204b35339083b7a4ce0fefb3fcea712354cb21745",
	"*fl.ErrorMsg/f32":             "0a2700a453f11e85b4c9b55945d7017c6bf647790974c7efde38673b901992bb",
	"*fl.ErrorMsg/f64":             "0a2700a453f11e85b4c9b55945d7017c6bf647790974c7efde38673b901992bb",
	"*fl.ErrorMsg/q8":              "0a2700a453f11e85b4c9b55945d7017c6bf647790974c7efde38673b901992bb",
	"*fl.GradUp/f32":               "cd3527d3e15bebea675329a91ec3ca401e867914758fb065f838c214e389d599",
	"*fl.GradUp/f64":               "a06f5d47a5f029e1944b1ea7014dc5b15ec2993f5ff01f62d2d03fb4db8ce345",
	"*fl.GradUp/q8":                "ae21ad8d7327d2911a77ab42ba7b3755dd8d4d3f24fc285632c291aab96246d2",
	"*fl.GradUp/q8-lazy-reencoded": "ae21ad8d7327d2911a77ab42ba7b3755dd8d4d3f24fc285632c291aab96246d2",
	"*fl.MaskRecon/f32":            "53602015a269bdbbc20b3fddb7ff12edd029982eb64696633e9a9ecc96e6ab81",
	"*fl.MaskRecon/f64":            "53602015a269bdbbc20b3fddb7ff12edd029982eb64696633e9a9ecc96e6ab81",
	"*fl.MaskRecon/q8":             "53602015a269bdbbc20b3fddb7ff12edd029982eb64696633e9a9ecc96e6ab81",
	"*fl.MaskShares/f32":           "29f45b71104a9f54f0b7c3685b69ee4f535892e25e6bb294d438c7c54ae79d86",
	"*fl.MaskShares/f64":           "29f45b71104a9f54f0b7c3685b69ee4f535892e25e6bb294d438c7c54ae79d86",
	"*fl.MaskShares/q8":            "29f45b71104a9f54f0b7c3685b69ee4f535892e25e6bb294d438c7c54ae79d86",
	"*fl.MaskedUp/f32":             "c494c54cafb9a7e5ac132d0d864737d5917cdbe91787ed787e0d61936dda5e00",
	"*fl.MaskedUp/f64":             "c494c54cafb9a7e5ac132d0d864737d5917cdbe91787ed787e0d61936dda5e00",
	"*fl.MaskedUp/q8":              "c494c54cafb9a7e5ac132d0d864737d5917cdbe91787ed787e0d61936dda5e00",
	"*fl.ModelDown/f32":            "0576af94d366bbd070809f365cdaa69304e9011ba9de8043f5a002c498e972d2",
	"*fl.ModelDown/f64":            "3eef290095dcd2bc11014cfa1481121c57a4699fa2d5b7a77ac33cfe3117193a",
	"*fl.ModelDown/q8":             "d92446c59ce5e1e0769d56b33f7b09f7a76beea2bae552f259b81096648c0838",
	"*fl.PartialUp/f32":            "5995781aa7d6ae3ade1e31c0493c285ace956d0cf6ccc091b826daaf56d5e3a4",
	"*fl.PartialUp/f64":            "5995781aa7d6ae3ade1e31c0493c285ace956d0cf6ccc091b826daaf56d5e3a4",
	"*fl.PartialUp/q8":             "5995781aa7d6ae3ade1e31c0493c285ace956d0cf6ccc091b826daaf56d5e3a4",
	"*fl.Reject/f32":               "a850197b4ca35a4da8b71e06153280fb5622cf2b84ab7de80776e6a9857a0d5f",
	"*fl.Reject/f64":               "a850197b4ca35a4da8b71e06153280fb5622cf2b84ab7de80776e6a9857a0d5f",
	"*fl.Reject/q8":                "a850197b4ca35a4da8b71e06153280fb5622cf2b84ab7de80776e6a9857a0d5f",
	"*fl.ShardDown/f32":            "6332761f9f7304a3460dabe491d999c147ba54472cd100bd2f48846e0ba8c6d4",
	"*fl.ShardDown/f64":            "518e2786a55401b76e16beabdb6e701a97140ba48a2f7620b47dc6e54b00396b",
	"*fl.ShardDown/q8":             "801fde57cf5f72195c09c36c422a8fb9ac58aafaeda894073d97e1943ce9ed9d",
}

// TestGoldenWireFormat pins the protocol's bytes: every message type
// under every codec, plus a lazily decoded q8 GradUp re-encoded verbatim.
// Each f64 encoding must also decode back to its example exactly.
func TestGoldenWireFormat(t *testing.T) {
	got := map[string]string{}
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	for _, m := range wireExamples() {
		for _, c := range goldenCodecs {
			got[fmt.Sprintf("%T/%s", m, c)] = sum(EncodeMessageCodec(m, c))
		}
		dec, err := DecodeMessage(m.Kind(), EncodeMessage(m))
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !reflect.DeepEqual(materialised(dec), m) {
			t.Errorf("%T: f64 decode differs from the example:\n got  %+v\n want %+v", m, dec, m)
		}
		if up, ok := m.(*GradUp); ok {
			lazy, err := DecodeMessageCodec(MsgGradUp, EncodeMessageCodec(up, wire.CodecQ8), wire.CodecQ8)
			if err != nil {
				t.Fatal(err)
			}
			if lazy.(*GradUp).Q8 == nil {
				t.Fatal("q8 GradUp did not decode lazily")
			}
			got["*fl.GradUp/q8-lazy-reencoded"] = sum(EncodeMessageCodec(lazy, wire.CodecQ8))
		}
	}
	checkGolden(t, got, goldenWireHashes)
}

// materialised returns a decoded message with the views of a GradUp,
// ModelDown or ShardDown decoded into Plain or Model, a PartialUp's sum
// views into Sum, and the level views of a MaskedUp or PartialUp into
// Levels, as its sender built it.
func materialised(m Message) Message {
	var plain *[]*tensor.Tensor
	var vs []*wire.View
	switch m := m.(type) {
	case *GradUp:
		plain, vs, m.Views, m.Q8 = &m.Plain, m.Views, nil, nil
	case *ModelDown:
		plain, vs, m.Views = &m.Plain, m.Views, nil
	case *ShardDown:
		plain, vs, m.Views = &m.Model, m.Views, nil
	case *MaskedUp:
		m.Levels = ownedLevels(m.Levels)
		return m
	case *PartialUp:
		m.Levels = ownedLevels(m.Levels)
		if m.SumViews == nil {
			return m
		}
		plain, vs, m.SumViews = &m.Sum, m.SumViews, nil
	default:
		return m
	}
	*plain = make([]*tensor.Tensor, len(vs))
	for i, v := range vs {
		if v != nil {
			(*plain)[i] = v.Materialise()
		}
	}
	return m
}

// ownedLevels returns level tensors with every view's words decoded into
// Levels.
func ownedLevels(ts []*wire.U64Tensor) []*wire.U64Tensor {
	out := make([]*wire.U64Tensor, len(ts))
	for i, t := range ts {
		if t != nil {
			out[i] = &wire.U64Tensor{Shape: t.Shape, Levels: make([]uint64, t.Size())}
			t.AddTo(out[i].Levels)
		}
	}
	return out
}

// checkGolden compares computed hashes with the recorded table and
// prints the computed table on any difference.
func checkGolden(t *testing.T, got, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := len(got) != len(want)
	for _, k := range keys {
		if want[k] != got[k] {
			bad = true
			t.Errorf("%s: hash %s, recorded %s", k, got[k], want[k])
		}
	}
	if bad {
		var table string
		for _, k := range keys {
			table += fmt.Sprintf("\t%q: %q,\n", k, got[k])
		}
		t.Fatalf("%d rows computed, %d recorded; computed table:\n%s", len(got), len(want), table)
	}
}
