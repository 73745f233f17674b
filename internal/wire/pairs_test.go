package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestPairsView: a (String, Blob) list decodes as a Pairs view whose
// walk returns every pair, aliasing the payload, and which re-encodes
// to the same bytes Append builds; a truncated pair or an empty name
// fails the frame.
func TestPairsView(t *testing.T) {
	type pair struct{ name, val string }
	in := []pair{{"pi-a", "key-a"}, {"pi-bb", ""}, {"c", "key-c"}}
	walk := func(f *Fields) {
		List(f, &in, func(f *Fields, p *pair) {
			f.String(&p.name)
			f.String(&p.val)
		})
	}
	payload := Encode(CodecF64, walk)

	var p Pairs
	if err := Decode(payload, CodecF64, func(f *Fields) { f.Pairs(&p) }); err != nil {
		t.Fatal(err)
	}
	if p.N != len(in) {
		t.Fatalf("N = %d, want %d", p.N, len(in))
	}
	off := 0
	for _, want := range in {
		var name, val []byte
		name, val, off = p.Next(off)
		if string(name) != want.name || string(val) != want.val {
			t.Fatalf("pair (%q, %q), want (%q, %q)", name, val, want.name, want.val)
		}
	}
	if off != len(p.Raw) || &p.Raw[0] != &payload[1] {
		t.Fatal("the view does not cover exactly the payload's pairs")
	}
	if got := Encode(CodecF64, func(f *Fields) { f.Pairs(&p) }); !bytes.Equal(got, payload) {
		t.Fatalf("re-encoded %x, want %x", got, payload)
	}
	var built Pairs
	for _, q := range in {
		built.Append(q.name, []byte(q.val))
	}
	if built.N != p.N || !bytes.Equal(built.Raw, p.Raw) {
		t.Fatalf("Append built %d pairs %x, want %d pairs %x", built.N, built.Raw, p.N, p.Raw)
	}

	empty := []pair{{"a", "x"}, {"", "y"}}
	for name, bad := range map[string][]byte{
		"truncated pair": payload[:len(payload)-2],
		"empty name": Encode(CodecF64, func(f *Fields) {
			List(f, &empty, func(f *Fields, p *pair) { f.String(&p.name); f.String(&p.val) })
		}),
	} {
		var q Pairs
		if err := Decode(bad, CodecF64, func(f *Fields) { f.Pairs(&q) }); !errors.Is(err, ErrCorrupt) || q.N != 0 {
			t.Errorf("%s: decoded %+v, err %v; want ErrCorrupt", name, q, err)
		}
	}
}
