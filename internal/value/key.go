package value

import (
	"encoding/binary"
	"math"
)

// AppendKey appends a canonical byte encoding of v to dst. Two values have
// equal encodings iff Compare(a, b) == 0 for flat values (scalars, labels,
// and tuples thereof). The encoding is prefix-free per value: each value is
// introduced by a one-byte tag, and variable-length payloads carry a length.
//
// Bags deliberately panic here: bags are never legal grouping, join, or
// partitioning keys (the paper restricts keys to flat types).
func AppendKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, 0x00)
	case bool:
		if x {
			return append(dst, 0x01, 1)
		}
		return append(dst, 0x01, 0)
	case int64:
		dst = append(dst, 0x02)
		return binary.BigEndian.AppendUint64(dst, uint64(x))
	case float64:
		dst = append(dst, 0x03)
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
	case Date:
		dst = append(dst, 0x04)
		return binary.BigEndian.AppendUint64(dst, uint64(x))
	case string:
		dst = append(dst, 0x05)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		return append(dst, x...)
	case Label:
		dst = append(dst, 0x06)
		dst = binary.BigEndian.AppendUint32(dst, uint32(x.Site))
		return AppendKey(dst, x.Payload)
	case Tuple:
		dst = append(dst, 0x07)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(x)))
		for _, e := range x {
			dst = AppendKey(dst, e)
		}
		return dst
	default:
		panic("value: bags and unknown types cannot be keys")
	}
}

// Key returns the canonical string key of a flat value, suitable as a Go map
// key for grouping and joining.
func Key(v Value) string { return string(AppendKey(nil, v)) }

// KeyCols returns the composite key of row projected on cols.
func KeyCols(row Tuple, cols []int) string {
	buf := make([]byte, 0, 16*len(cols))
	for _, c := range cols {
		buf = AppendKey(buf, row[c])
	}
	return string(buf)
}

// EqualCols reports whether the composite key of a over acols equals that of
// b over bcols, i.e. KeyCols(a, acols) == KeyCols(b, bcols), without building
// either string. It is the equality hash tables keyed by HashCols verify
// collisions with, so it must mirror AppendKey case by case exactly as foldKey
// does: values of different kinds never match (int64 5 ≠ float64 5.0), floats
// compare by bit pattern (0.0 ≠ -0.0, NaN = the same NaN), and NULL = NULL —
// join callers drop NULL-keyed rows before they ask. Compare is not this
// relation: it merges the numeric kinds.
func EqualCols(a Tuple, acols []int, b Tuple, bcols []int) bool {
	if len(acols) != len(bcols) {
		return false
	}
	for i, c := range acols {
		if !equalKey(a[c], b[bcols[i]]) {
			return false
		}
	}
	return true
}

// EqualKey reports whether a and b are equal as keys: EqualCols of one
// column each.
func EqualKey(a, b Value) bool { return equalKey(a, b) }

func equalKey(a, b Value) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case int64:
		y, ok := b.(int64)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case Date:
		y, ok := b.(Date)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	case Label:
		y, ok := b.(Label)
		return ok && x.Site == y.Site && equalKeyTuple(x.Payload, y.Payload)
	case Tuple:
		y, ok := b.(Tuple)
		return ok && equalKeyTuple(x, y)
	default:
		panic("value: bags and unknown types cannot be keys")
	}
}

func equalKeyTuple(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalKey(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FNV-1a 64-bit parameters; identical to hash/fnv.New64a.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvU32(h uint64, v uint32) uint64 {
	h = fnvByte(h, byte(v>>24))
	h = fnvByte(h, byte(v>>16))
	h = fnvByte(h, byte(v>>8))
	return fnvByte(h, byte(v))
}

func fnvU64(h uint64, v uint64) uint64 {
	return fnvU32(fnvU32(h, uint32(v>>32)), uint32(v))
}

// foldKey folds the AppendKey encoding of v into the FNV-1a state h without
// materializing the bytes: hashing a key allocates nothing. It must mirror
// AppendKey case by case — partition placement and the statistics sketches
// depend on the two agreeing (TestHashMatchesFNVOverAppendKey pins it).
func foldKey(h uint64, v Value) uint64 {
	switch x := v.(type) {
	case nil:
		return fnvByte(h, 0x00)
	case bool:
		if x {
			return fnvByte(fnvByte(h, 0x01), 1)
		}
		return fnvByte(fnvByte(h, 0x01), 0)
	case int64:
		return fnvU64(fnvByte(h, 0x02), uint64(x))
	case float64:
		return fnvU64(fnvByte(h, 0x03), math.Float64bits(x))
	case Date:
		return fnvU64(fnvByte(h, 0x04), uint64(x))
	case string:
		h = fnvU32(fnvByte(h, 0x05), uint32(len(x)))
		for i := 0; i < len(x); i++ {
			h = fnvByte(h, x[i])
		}
		return h
	case Label:
		return foldTuple(fnvU32(fnvByte(h, 0x06), uint32(x.Site)), x.Payload)
	case Tuple:
		return foldTuple(h, x)
	default:
		panic("value: bags and unknown types cannot be keys")
	}
}

func foldTuple(h uint64, t Tuple) uint64 {
	h = fnvU32(fnvByte(h, 0x07), uint32(len(t)))
	for _, e := range t {
		h = foldKey(h, e)
	}
	return h
}

// Hash64 hashes a flat value with FNV-1a over its canonical encoding.
func Hash64(v Value) uint64 { return foldKey(fnvOffset64, v) }

// HashSeqLabel is Hash64(Label{Site: site, Payload: Tuple{seq}}) without
// building the label: what value shredding reads while it looks for a
// sequence number whose label lands on a given partition.
func HashSeqLabel(site int32, seq int64) uint64 {
	h := fnvU32(fnvByte(fnvOffset64, 0x06), uint32(site))
	h = fnvU32(fnvByte(h, 0x07), 1)
	return fnvU64(fnvByte(h, 0x02), uint64(seq))
}

// HashCols hashes the composite key of row projected on cols: FNV-1a over the
// concatenated per-column encodings, i.e. over the bytes of KeyCols.
func HashCols(row Tuple, cols []int) uint64 {
	h := fnvOffset64
	for _, c := range cols {
		h = foldKey(h, row[c])
	}
	return h
}
