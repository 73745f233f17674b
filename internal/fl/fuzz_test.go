package fl

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/gradsec/gradsec/internal/wire"
)

// FuzzDecodeMessage throws arbitrary payloads at the protocol decoder
// under every message type and codec, seeded with the golden example
// table: it must never panic, and any message it accepts must survive a
// re-encode/re-decode cycle unchanged.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range wireExamples() {
		for _, c := range goldenCodecs {
			f.Add(byte(m.Kind()), uint8(c), EncodeMessageCodec(m, c))
		}
	}
	f.Add(byte(MsgModelDown), uint8(wire.CodecF64), []byte{0xFF})
	// A masked round's ModelDown: the roster decodes as a view.
	var cohort wire.Pairs
	for i := 0; i < 5; i++ {
		cohort.Append(fmt.Sprintf("dev-%d", i), bytes.Repeat([]byte{byte(i)}, 32))
	}
	f.Add(byte(MsgModelDown), uint8(wire.CodecF64), EncodeMessage(&ModelDown{Round: 4, Plain: newState(1, 2), Cohort: cohort, MaskDegree: 4}))
	f.Add(byte(200), uint8(wire.CodecF64), []byte{})

	f.Fuzz(func(t *testing.T, mt byte, codec uint8, payload []byte) {
		c := wire.Codec(codec % 3)
		m, err := DecodeMessageCodec(MsgType(mt), payload, c)
		if err != nil {
			return
		}
		m2, err := DecodeMessageCodec(MsgType(mt), EncodeMessageCodec(m, c), c)
		if err != nil {
			t.Fatalf("accepted %T failed to re-decode: %v", m, err)
		}
		switch m.(type) {
		case *ModelDown, *Done, *ShardDown:
			if c == wire.CodecQ8 {
				return // materialised q8 tensors requantise on re-encode
			}
		}
		if !equalBits(reflect.ValueOf(m2), reflect.ValueOf(m)) {
			t.Fatalf("%T changed on a round trip:\n got  %+v\n want %+v", m, m2, m)
		}
	})
}

// TestEveryMessageHasAnExample guards the example table that seeds the
// golden hashes and the fuzz corpus: a new message type must join it.
func TestEveryMessageHasAnExample(t *testing.T) {
	have := map[MsgType]bool{}
	for _, m := range wireExamples() {
		have[m.Kind()] = true
	}
	for mt := MsgType(1); newMessage(mt) != nil; mt++ {
		if !have[mt] {
			t.Errorf("message type %d (%T) has no example in wireExamples", mt, newMessage(mt))
		}
	}
}

// equalBits is reflect.DeepEqual with floats compared by bit pattern,
// so a NaN that survives a round trip counts as the same value.
func equalBits(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalBits(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() || a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}
