package wire

import "encoding/binary"

// Pairs is a list of (name, value) pairs still in its wire encoding — a
// count, then per pair a length-prefixed non-empty name and a
// length-prefixed value, as List writes a (String, Blob) element —
// aliasing the payload it was read from (docs/WIRE.md, rule 6). A cohort
// roster travels this way: the Reader checks every length once, so
// walking a decoded list (Next) cannot fail, and reading it costs no
// per-pair string or slice.
type Pairs struct {
	// N is the number of pairs.
	N int
	// Raw is the pairs' encoding after the count.
	Raw []byte
}

// Next returns the pair encoded at offset off of Raw and the offset of
// the pair after it. Walk a list from offset 0, N times.
func (p Pairs) Next(off int) (name, val []byte, next int) {
	name, off = lengthPrefixed(p.Raw, off)
	val, off = lengthPrefixed(p.Raw, off)
	return name, val, off
}

// lengthPrefixed splits one uvarint-length-prefixed blob at off.
func lengthPrefixed(b []byte, off int) ([]byte, int) {
	n, k := binary.Uvarint(b[off:])
	off += k
	return b[off : off+int(n) : off+int(n)], off + int(n)
}

// Append appends one pair, encoded as the Reader reads it. A list that
// is a view of a payload grows into storage of its own.
func (p *Pairs) Append(name string, val []byte) {
	p.Raw = binary.AppendUvarint(p.Raw, uint64(len(name)))
	p.Raw = append(p.Raw, name...)
	p.Raw = binary.AppendUvarint(p.Raw, uint64(len(val)))
	p.Raw = append(p.Raw, val...)
	p.N++
}

// Pairs reads a pair list as a view into the payload: a count the
// payload cannot hold, a truncated pair or an empty name fails the
// frame.
func (r *Reader) Pairs() Pairs {
	n := r.listLen()
	start := r.off
	for i := 0; i < n && r.err == nil; i++ {
		if len(r.BlobBytes()) == 0 && r.err == nil {
			r.fail("empty pair name")
		}
		r.BlobBytes()
	}
	if r.err != nil || n == 0 {
		return Pairs{}
	}
	return Pairs{N: n, Raw: r.buf[start:r.off:r.off]}
}

// Pairs appends a pair list verbatim.
func (w *Writer) Pairs(p Pairs) {
	w.Uvarint(uint64(p.N))
	if !w.skip(len(p.Raw)) {
		w.buf = append(w.buf, p.Raw...)
	}
}

// Pairs walks a pair list: decoding references the payload (Reader.Pairs),
// encoding writes it verbatim.
func (f *Fields) Pairs(p *Pairs) { field(f, p, (*Writer).Pairs, (*Reader).Pairs) }
