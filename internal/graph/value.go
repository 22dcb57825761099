// Package graph implements an in-memory property-graph store: multi-label
// nodes and edges carrying typed key/value properties, with label and
// property indexes, schema extraction and basic statistics.
//
// The model follows the property-graph definition used by the paper
// (Bonifati et al., "Querying Graphs"): both nodes and edges may have
// multiple labels, and both carry properties.
package graph

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic types a property Value can hold.
type Kind uint8

const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindList
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed property value. The zero Value is null.
// Values are immutable by convention: callers must not mutate the list
// returned by List().
//
// A Value is a 24-byte tagged union, because property maps hold most of a
// graph's memory: n carries a bool, an int64 or a float64's bits, or the
// length of the string or list whose data p points to (p keeps that data
// alive for the GC). The accessors check the kind, so a mismatched call
// returns the zero payload as it always has.
type Value struct {
	kind Kind
	n    uint64
	p    unsafe.Pointer
}

// Null is the null value.
var Null = Value{}

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.n = 1
	}
	return v
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// NewString returns a string value.
func NewString(s string) Value {
	return Value{kind: KindString, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// NewList returns a list value wrapping vs. The slice is retained.
func NewList(vs ...Value) Value {
	return Value{kind: KindList, n: uint64(len(vs)), p: unsafe.Pointer(unsafe.SliceData(vs))}
}

// Of converts a native Go value into a Value. Supported inputs: nil, bool,
// all int/uint widths, float32/64, string, []Value, and slices of the
// former. Unsupported inputs yield null.
func Of(v any) Value {
	switch x := v.(type) {
	case nil:
		return Null
	case Value:
		return x
	case bool:
		return NewBool(x)
	case int:
		return NewInt(int64(x))
	case int8:
		return NewInt(int64(x))
	case int16:
		return NewInt(int64(x))
	case int32:
		return NewInt(int64(x))
	case int64:
		return NewInt(x)
	case uint:
		return NewInt(int64(x))
	case uint8:
		return NewInt(int64(x))
	case uint16:
		return NewInt(int64(x))
	case uint32:
		return NewInt(int64(x))
	case uint64:
		return NewInt(int64(x))
	case float32:
		return NewFloat(float64(x))
	case float64:
		return NewFloat(x)
	case string:
		return NewString(x)
	case []Value:
		return NewList(x...)
	case []string:
		out := make([]Value, len(x))
		for i, s := range x {
			out[i] = NewString(s)
		}
		return NewList(out...)
	case []int:
		out := make([]Value, len(x))
		for i, n := range x {
			out[i] = NewInt(int64(n))
		}
		return NewList(out...)
	case []any:
		out := make([]Value, len(x))
		for i, e := range x {
			out[i] = Of(e)
		}
		return NewList(out...)
	default:
		return Null
	}
}

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload; valid only when Kind is KindBool.
func (v Value) Bool() bool { return v.kind == KindBool && v.n != 0 }

// Int returns the integer payload; valid only when Kind is KindInt.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// Float returns the float payload; valid only when Kind is KindFloat.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.n)
}

// Str returns the string payload; valid only when Kind is KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// List returns the list payload; valid only when Kind is KindList.
func (v Value) List() []Value {
	if v.kind != KindList {
		return nil
	}
	return unsafe.Slice((*Value)(v.p), int(v.n))
}

// AsFloat returns the numeric payload widened to float64 and whether the
// value is numeric.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.Int()), true
	case KindFloat:
		return v.Float(), true
	default:
		return 0, false
	}
}

// Truthy reports whether the value is the boolean true. Non-boolean values
// are never truthy (Cypher boolean semantics reject them at type level; we
// coerce to false).
func (v Value) Truthy() bool { return v.Bool() }

// Equal reports strict equality between two values. Numeric values compare
// exactly across int/float (1 = 1.0, but 2^53+1 != 2^53). Null equals
// nothing, not even null (SQL/Cypher three-valued logic collapses to false
// here; use IsNull for null checks); NaN equals nothing either.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return false
	}
	if v.kind == KindInt && o.kind == KindInt {
		return v.n == o.n
	}
	if fa, ok := v.AsFloat(); ok {
		if fb, okb := o.AsFloat(); okb {
			switch {
			case fa != fb: // rounding is monotone, so the values differ too
				return false
			case v.kind == KindInt:
				return intFloatTie(v.Int(), fb) == 0
			case o.kind == KindInt:
				return intFloatTie(o.Int(), fa) == 0
			}
			return true
		}
		return false
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindBool:
		return v.n == o.n
	case KindString:
		return v.Str() == o.Str()
	case KindList:
		vl, ol := v.List(), o.List()
		if len(vl) != len(ol) {
			return false
		}
		for i := range vl {
			if vl[i].IsNull() && ol[i].IsNull() {
				continue
			}
			if !vl[i].Equal(ol[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders two values. It returns <0, 0, >0 like strings.Compare and
// ok=false when the pair is incomparable (mixed non-numeric kinds, any null
// or any NaN). Numbers compare exactly; a NaN orders against nothing, so
// every ordered comparison involving one is false, as IEEE 754 has it.
func (v Value) Compare(o Value) (int, bool) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, false
	}
	if v.kind == KindInt && o.kind == KindInt {
		return cmp.Compare(v.Int(), o.Int()), true
	}
	if fa, ok := v.AsFloat(); ok {
		if fb, okb := o.AsFloat(); okb {
			switch {
			case fa < fb: // rounding is monotone, so the values compare alike
				return -1, true
			case fa > fb:
				return 1, true
			case fa != fb: // a NaN
				return 0, false
			case v.kind == KindInt:
				return intFloatTie(v.Int(), fb), true
			case o.kind == KindInt:
				return -intFloatTie(o.Int(), fa), true
			}
			return 0, true
		}
		return 0, false
	}
	if v.kind != o.kind {
		return 0, false
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.Str(), o.Str()), true
	case KindBool:
		return int(v.n) - int(o.n), true
	default:
		return 0, false
	}
}

// intFloatTie orders i against f when float64(i) == f: f is then an
// integer, compared as one, except 2^63, which lies above every int64.
func intFloatTie(i int64, f float64) int {
	if f >= 0x1p63 {
		return -1
	}
	return cmp.Compare(i, int64(f))
}

// SortKey returns a total-order key usable for deterministic ordering of
// heterogeneous values (nulls last, then bools, numbers, strings, lists);
// see AppendSortKey.
func (v Value) SortKey() string {
	if v.kind == KindString { // one allocation however long the string
		return "2:" + v.Str()
	}
	var buf [32]byte
	return string(v.AppendSortKey(buf[:0]))
}

// AppendSortKey appends v's sort key to dst and returns the extended slice.
// Keys compare bytewise like Compare orders comparable values, and two
// values share a key exactly when they are Equal, both null or both NaN —
// so the key is also the grouping key (Cypher groups nulls together):
//
//	null   "\xff"
//	bool   "0:0", "0:1"
//	number "1:" + 16 hex digits of the float64 bits, sign-flipped so that
//	       byte order is numeric order (NaN: all ones, above every number);
//	       an int64 that float64 cannot hold exactly (|i| > 2^53) takes
//	       the key of the largest float64 below it plus "+" and 4 hex
//	       digits of the (positive, < 1024) offset, which sorts after that
//	       float and before the next one
//	string "2:" + the bytes
//	list   "3:" + the element keys joined by NUL, a NUL inside an element
//	       key escaped as NUL 0x01 (no element key starts with 0x01)
func (v Value) AppendSortKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0xff)
	case KindBool:
		if v.Bool() {
			return append(dst, "0:1"...)
		}
		return append(dst, "0:0"...)
	case KindInt:
		i := v.Int()
		f := float64(i)
		if f >= 0x1p63 || int64(f) > i {
			f = math.Nextafter(f, math.Inf(-1))
		}
		dst = appendFloatKey(dst, f)
		if off := uint64(i - int64(f)); off != 0 {
			dst = appendHex(append(dst, '+'), off, 4)
		}
		return dst
	case KindFloat:
		return appendFloatKey(dst, v.Float())
	case KindString:
		return append(append(dst, "2:"...), v.Str()...)
	case KindList:
		dst = append(dst, "3:"...)
		for i, e := range v.List() {
			if i > 0 {
				dst = append(dst, 0)
			}
			start := len(dst)
			dst = escapeNUL(e.AppendSortKey(dst), start)
		}
		return dst
	default:
		return append(dst, '9')
	}
}

// appendFloatKey appends the numeric sort key of f: "1:" and the float's
// bits in hex, the sign bit flipped for non-negatives and every bit for
// negatives so that byte order is numeric order. -0 shares +0's key. Every
// NaN shares the all-ones key, above +Inf and every int, where Cypher
// orders NaN.
func appendFloatKey(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	switch {
	case f != f:
		bits = math.MaxUint64
	case f >= 0:
		bits |= 1 << 63
	default:
		bits = ^bits
	}
	return appendHex(append(dst, "1:"...), bits, 16)
}

// appendHex appends the low width hex digits of x, zero-padded.
func appendHex(dst []byte, x uint64, width int) []byte {
	const digits = "0123456789abcdef"
	for s := 4 * (width - 1); s >= 0; s -= 4 {
		dst = append(dst, digits[x>>s&0xf])
	}
	return dst
}

// escapeNUL rewrites every NUL in dst[start:] as NUL 0x01, in place.
func escapeNUL(dst []byte, start int) []byte {
	n := bytes.Count(dst[start:], []byte{0})
	if n == 0 {
		return dst
	}
	end := len(dst)
	dst = append(dst, make([]byte, n)...)
	for r, w := end-1, len(dst)-1; r >= start; r-- {
		if dst[r] == 0 {
			dst[w] = 0x01
			w--
		}
		dst[w] = dst[r]
		w--
	}
	return dst
}

// String renders the value in a Cypher-literal-like form.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.Bool())
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.Str())
	case KindList:
		parts := make([]string, int(v.n))
		for i, e := range v.List() {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	default:
		return "?"
	}
}

// Display renders the value for human output: strings unquoted, everything
// else as String.
func (v Value) Display() string {
	if v.kind == KindString {
		return v.Str()
	}
	return v.String()
}

// Props is a property map from key to value.
type Props map[string]Value

// Clone returns a shallow copy of the property map.
func (p Props) Clone() Props {
	if p == nil {
		return nil
	}
	out := make(Props, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Keys returns the sorted property keys.
func (p Props) Keys() []string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
