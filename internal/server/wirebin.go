// Binary columnar wire encoding for result tables: the packed
// little-endian column body every /v1/plan/stream chunk frame carries,
// base64 in its "bin" field. It is the only body between tiers; the
// buffered /v1/query and /v1/plan endpoints answer JSON only.
//
// Layout (all integers little-endian; uvarint is encoding/binary's
// unsigned varint):
//
//	magic   "MWT1" (4 bytes)
//	uvarint len(name), name bytes
//	uvarint rows
//	uvarint cols
//	per column:
//	  uvarint len(name), name bytes
//	  byte    type code (1=schr 2=sint 3=slng 4=dbl 5=str)
//	  body:
//	    integer types  rows x 8 bytes, values widened to int64 (two's
//	                   complement), exactly like the JSON form's I64
//	    dbl            rows x 8 bytes, raw IEEE-754 bits via
//	                   math.Float64bits — NaN and ±Inf round-trip
//	                   bit-exactly, which encoding/json cannot do at all
//	    str            rows x uvarint byte length, then the concatenated
//	                   string bytes
//
// The codec converts to and from the TableJSON wire form, so everything
// downstream of it — DecodeTable's width narrowing, TableJSON.Equal,
// PartialAccumulator folding, fingerprints — is shared with the JSON
// endpoints and behaves identically over either body format.
package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"microadapt/internal/vector"
)

// wireBinMagic guards against decoding arbitrary bytes as a table.
var wireBinMagic = [4]byte{'M', 'W', 'T', '1'}

// Type codes of the binary form. They deliberately do not reuse
// vector.Type's numeric values: the wire format is versioned by its
// magic, not by internal enum ordering.
const (
	binI16 byte = 1
	binI32 byte = 2
	binI64 byte = 3
	binF64 byte = 4
	binStr byte = 5
)

func binTypeCode(name string) (byte, error) {
	switch name {
	case vector.I16.String():
		return binI16, nil
	case vector.I32.String():
		return binI32, nil
	case vector.I64.String():
		return binI64, nil
	case vector.F64.String():
		return binF64, nil
	case vector.Str.String():
		return binStr, nil
	}
	return 0, fmt.Errorf("unknown column type %q", name)
}

func binTypeName(code byte) (string, error) {
	switch code {
	case binI16:
		return vector.I16.String(), nil
	case binI32:
		return vector.I32.String(), nil
	case binI64:
		return vector.I64.String(), nil
	case binF64:
		return vector.F64.String(), nil
	case binStr:
		return vector.Str.String(), nil
	}
	return "", fmt.Errorf("unknown binary type code %d", code)
}

// MarshalTableBin packs a wire table into the binary columnar form.
// Float columns ship raw bits, so a table that has been through
// EscapeNonFinite (F64Bits set) packs identically to its plain form.
func MarshalTableBin(tj *TableJSON) ([]byte, error) {
	if tj == nil {
		return nil, fmt.Errorf("server: marshal bin: nil table")
	}
	// Size the buffer once: fixed-width columns dominate, strings get
	// their exact byte length plus worst-case 5-byte uvarints.
	size := 4 + 10 + len(tj.Name) + 10
	for ci := range tj.Cols {
		c := &tj.Cols[ci]
		size += 10 + len(c.Name) + 1 + 8*tj.Rows
		for _, s := range c.Str {
			size += len(s) + 5
		}
	}
	out := make([]byte, 0, size)
	out = append(out, wireBinMagic[:]...)
	out = appendUvarintString(out, tj.Name)
	out = binary.AppendUvarint(out, uint64(tj.Rows))
	out = binary.AppendUvarint(out, uint64(len(tj.Cols)))
	for ci := range tj.Cols {
		c := &tj.Cols[ci]
		code, err := binTypeCode(c.Type)
		if err != nil {
			return nil, fmt.Errorf("server: marshal bin: col %s: %w", c.Name, err)
		}
		out = appendUvarintString(out, c.Name)
		out = append(out, code)
		var vals int
		switch code {
		case binF64:
			if len(c.F64Bits) > 0 {
				vals = len(c.F64Bits)
				for _, b := range c.F64Bits {
					out = binary.LittleEndian.AppendUint64(out, b)
				}
			} else {
				vals = len(c.F64)
				for _, v := range c.F64 {
					out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
				}
			}
		case binStr:
			vals = len(c.Str)
			for _, s := range c.Str {
				out = appendUvarintString(out, s)
			}
		default:
			vals = len(c.I64)
			for _, v := range c.I64 {
				out = binary.LittleEndian.AppendUint64(out, uint64(v))
			}
		}
		if vals != tj.Rows {
			return nil, fmt.Errorf("server: marshal bin: col %s: %d values, want %d rows", c.Name, vals, tj.Rows)
		}
	}
	return out, nil
}

// UnmarshalTableBin unpacks the binary columnar form back into the
// TableJSON wire shape (integers widened to I64, floats reconstructed
// from their bits). Corrupt or truncated input returns an error; it
// never panics and never allocates more than the input can account for.
func UnmarshalTableBin(data []byte) (*TableJSON, error) {
	r := binReader{data: data}
	var magic [4]byte
	if !r.bytes(magic[:]) || magic != wireBinMagic {
		return nil, fmt.Errorf("server: unmarshal bin: bad magic")
	}
	name, ok := r.str()
	rows, ok2 := r.uvarint()
	ncols, ok3 := r.uvarint()
	if !ok || !ok2 || !ok3 {
		return nil, fmt.Errorf("server: unmarshal bin: truncated header")
	}
	// Every column body costs at least one byte per row (string uvarint
	// lengths) or eight (fixed-width), and each column header at least
	// two bytes; reject size claims the input cannot hold before
	// allocating anything proportional to them.
	if rows > uint64(len(data)) || ncols > uint64(len(data)) {
		return nil, fmt.Errorf("server: unmarshal bin: claims %d rows x %d cols in %d bytes", rows, ncols, len(data))
	}
	tj := &TableJSON{Name: name, Rows: int(rows), Cols: make([]ColumnJSON, int(ncols))}
	for ci := range tj.Cols {
		cname, ok := r.str()
		if !ok {
			return nil, fmt.Errorf("server: unmarshal bin: truncated at column %d header", ci)
		}
		code, ok := r.byte()
		if !ok {
			return nil, fmt.Errorf("server: unmarshal bin: truncated at column %s type", cname)
		}
		tname, err := binTypeName(code)
		if err != nil {
			return nil, fmt.Errorf("server: unmarshal bin: col %s: %w", cname, err)
		}
		col := ColumnJSON{Name: cname, Type: tname}
		switch code {
		case binF64:
			raw, ok := r.take(8 * int(rows))
			if !ok {
				return nil, fmt.Errorf("server: unmarshal bin: col %s: truncated float body", cname)
			}
			col.F64 = make([]float64, rows)
			for i := range col.F64 {
				col.F64[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		case binStr:
			col.Str = make([]string, rows)
			// Two passes: measure the blob, then slice every value out of
			// one string allocation.
			save := r.off
			total := 0
			for i := 0; i < int(rows); i++ {
				n, ok := r.uvarint()
				if !ok || !r.skip(int(n)) {
					return nil, fmt.Errorf("server: unmarshal bin: col %s: truncated string body", cname)
				}
				total += int(n)
			}
			r.off = save
			blob := make([]byte, 0, total)
			lens := make([]int, rows)
			for i := 0; i < int(rows); i++ {
				n, _ := r.uvarint()
				b, _ := r.take(int(n))
				blob = append(blob, b...)
				lens[i] = int(n)
			}
			s := string(blob)
			off := 0
			for i, n := range lens {
				col.Str[i] = s[off : off+n]
				off += n
			}
		default:
			raw, ok := r.take(8 * int(rows))
			if !ok {
				return nil, fmt.Errorf("server: unmarshal bin: col %s: truncated integer body", cname)
			}
			col.I64 = make([]int64, rows)
			for i := range col.I64 {
				col.I64[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		tj.Cols[ci] = col
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("server: unmarshal bin: %d trailing bytes", len(data)-r.off)
	}
	return tj, nil
}

func appendUvarintString(out []byte, s string) []byte {
	out = binary.AppendUvarint(out, uint64(len(s)))
	return append(out, s...)
}

// binReader is a bounds-checked cursor over the binary form.
type binReader struct {
	data []byte
	off  int
}

func (r *binReader) take(n int) ([]byte, bool) {
	if n < 0 || r.off+n > len(r.data) || r.off+n < r.off {
		return nil, false
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, true
}

func (r *binReader) skip(n int) bool {
	_, ok := r.take(n)
	return ok
}

func (r *binReader) bytes(dst []byte) bool {
	b, ok := r.take(len(dst))
	if ok {
		copy(dst, b)
	}
	return ok
}

func (r *binReader) byte() (byte, bool) {
	b, ok := r.take(1)
	if !ok {
		return 0, false
	}
	return b[0], true
}

func (r *binReader) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, false
	}
	r.off += n
	return v, true
}

func (r *binReader) str() (string, bool) {
	n, ok := r.uvarint()
	if !ok || n > uint64(len(r.data)-r.off) {
		return "", false
	}
	b, ok := r.take(int(n))
	if !ok {
		return "", false
	}
	return string(b), true
}
