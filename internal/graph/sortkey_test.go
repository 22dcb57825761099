package graph

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// legacySortKey is the Sprintf-based encoding SortKey had before
// AppendSortKey, kept as the reference the encoder must reproduce byte for
// byte wherever that encoding was already exact (see legacyExact).
func legacySortKey(v Value) string {
	switch v.Kind() {
	case KindNull:
		return "\xff"
	case KindBool:
		if v.Bool() {
			return "0:1"
		}
		return "0:0"
	case KindInt, KindFloat:
		f, _ := v.AsFloat()
		bits := math.Float64bits(f)
		if f >= 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		return fmt.Sprintf("1:%016x", bits)
	case KindString:
		return "2:" + v.Str()
	case KindList:
		parts := make([]string, len(v.List()))
		for i, e := range v.List() {
			parts[i] = legacySortKey(e)
		}
		return "3:" + strings.Join(parts, "\x00")
	}
	return "9"
}

// legacyExact reports whether the legacy encoding of v is one the new
// encoder keeps: no int beyond float64's exact range (it shared a float's
// key), no NaN (its key fell among the subnormals, where NaN does not
// order), and no NUL inside a list element's key (two lists could share a
// key).
func legacyExact(v Value) bool {
	switch v.Kind() {
	case KindInt:
		f := float64(v.Int())
		return f < 0x1p63 && int64(f) == v.Int()
	case KindFloat:
		return v.Float() == v.Float()
	case KindList:
		for _, e := range v.List() {
			if !legacyExact(e) || strings.IndexByte(legacySortKey(e), 0) >= 0 {
				return false
			}
		}
	}
	return true
}

func isNaN(v Value) bool { return v.Kind() == KindFloat && v.Float() != v.Float() }

func isNumber(v Value) bool { return v.Kind() == KindInt || v.Kind() == KindFloat }

// sameGroup is grouping equality: Equal, except that null groups with null
// and NaN with NaN, also inside lists.
func sameGroup(a, b Value) bool {
	switch {
	case a.IsNull() || b.IsNull():
		return a.IsNull() && b.IsNull()
	case isNaN(a) || isNaN(b):
		return isNaN(a) && isNaN(b)
	case a.Kind() == KindList && b.Kind() == KindList:
		al, bl := a.List(), b.List()
		if len(al) != len(bl) {
			return false
		}
		for i := range al {
			if !sameGroup(al[i], bl[i]) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// checkSortKeys asserts the three encoder properties on one pair.
func checkSortKeys(t *testing.T, a, b Value) {
	t.Helper()
	ka, kb := a.AppendSortKey(nil), b.AppendSortKey(nil)
	for _, v := range []Value{a, b} {
		if k := v.AppendSortKey(nil); legacyExact(v) && string(k) != legacySortKey(v) {
			t.Fatalf("%v: key %q, legacy encoding %q", v, k, legacySortKey(v))
		}
		if k := v.AppendSortKey([]byte("prefix")); string(k) != "prefix"+v.SortKey() {
			t.Fatalf("%v: AppendSortKey does not append", v)
		}
	}
	if c, ok := a.Compare(b); ok && !isNaN(a) && !isNaN(b) {
		if got := bytes.Compare(ka, kb); got != c {
			t.Fatalf("Compare(%v, %v) = %d but keys %q, %q compare %d", a, b, c, ka, kb, got)
		}
	}
	for _, p := range [2][2]Value{{a, b}, {b, a}} {
		nan, num := p[0], p[1]
		if isNaN(nan) && isNumber(num) && !isNaN(num) && nan.SortKey() <= num.SortKey() {
			t.Fatalf("NaN key %q is not above the key %q of %v", nan.SortKey(), num.SortKey(), num)
		}
	}
	if eq, same := bytes.Equal(ka, kb), sameGroup(a, b); eq != same {
		t.Fatalf("%v, %v: keys equal = %v, same group = %v (keys %q, %q)", a, b, eq, same, ka, kb)
	}
}

// fuzzValue builds one value from fuzz inputs; sel picks the shape.
func fuzzValue(sel uint8, i int64, f float64, s string) Value {
	switch sel % 9 {
	case 0:
		return Null
	case 1:
		return NewBool(i&1 == 1)
	case 2:
		return NewInt(i)
	case 3:
		return NewFloat(f)
	case 4:
		return NewString(s)
	case 5:
		return NewList(NewInt(i), NewString(s))
	case 6:
		return NewList(NewList(NewFloat(f), NewString(s)), NewInt(i))
	case 7:
		return NewList(NewString(s))
	default:
		return NewList(NewList(NewInt(i)), Null, NewString(s))
	}
}

func FuzzSortKey(f *testing.F) {
	const p53 = int64(1) << 53
	seeds := []struct {
		sel uint8
		i   int64
		f   float64
		s   string
	}{
		{3, 0, math.NaN(), ""},
		{3, 0, math.Inf(1), ""},
		{3, 0, math.Copysign(0, -1), ""},
		{3, 0, 0, ""},
		{2, 0, 0, ""},
		{2, p53 + 1, 0, ""},
		{2, p53 - 1, 0, ""},
		{2, -p53 - 1, 0, ""},
		{2, -p53 + 1, 0, ""},
		{3, 0, 0x1p53, ""},
		{3, 0, 0x1p53 + 2, ""},
		{3, 0, -0x1p53, ""},
		{2, math.MaxInt64, 0, ""},
		{2, math.MinInt64, 0, ""},
		{2, math.MinInt64 + 1, 0, ""},
		{3, 0, 0x1p63, ""},
		{3, 0, -0x1p63, ""},
		{4, 0, 0, "a\x00b"},
		{4, 0, 0, "a"},
		{5, 1, 0, "a\x002:b"},
		{6, 2, 1.5, "x"},
		{7, 0, 0, "a\x002:b"},
		{8, 3, 0, ""},
		{1, 1, 0, ""},
		{0, 0, 0, ""},
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a.sel, a.i, a.f, a.s, b.sel, b.i, b.f, b.s)
		}
	}
	f.Fuzz(func(t *testing.T, sa uint8, ia int64, fa float64, xa string, sb uint8, ib int64, fb float64, xb string) {
		checkSortKeys(t, fuzzValue(sa, ia, fa, xa), fuzzValue(sb, ib, fb, xb))
	})
}

// TestSortKeyNeighbours checks the encoder on every int within a few units
// of the points where float64 stops holding int64s exactly, against the
// floats around them.
func TestSortKeyNeighbours(t *testing.T) {
	var vals []Value
	for _, c := range []int64{1 << 53, -(1 << 53), 1 << 54, 1 << 62, -(1 << 62)} {
		for d := int64(-4); d <= 4; d++ {
			vals = append(vals, NewInt(c+d), NewFloat(float64(c+d)))
		}
	}
	for d := int64(0); d <= 1100; d += 100 {
		vals = append(vals, NewInt(math.MaxInt64-d), NewInt(math.MinInt64+d))
	}
	vals = append(vals, NewFloat(0x1p63), NewFloat(-0x1p63), NewFloat(math.Nextafter(0x1p63, 0)), NewFloat(math.NaN()))
	for _, a := range vals {
		for _, b := range vals {
			checkSortKeys(t, a, b)
		}
	}
}

// TestBigIntValues pins the int64 > 2^53 cases that used to collapse onto
// one float64: 2^53 and 2^53+1 are distinct values, grouping keys and
// index keys, and 2^53 still equals the float 2^53.
func TestBigIntValues(t *testing.T) {
	a, b := NewInt(9007199254740992), NewInt(9007199254740993)
	cases := []struct {
		name string
		got  bool
	}{
		{"2^53 != 2^53+1", !a.Equal(b)},
		{"2^53 < 2^53+1", mustCompare(t, a, b) < 0},
		{"2^53 = 2^53 as float", a.Equal(NewFloat(0x1p53))},
		{"2^53+1 > 2^53 as float", mustCompare(t, b, NewFloat(0x1p53)) > 0},
		{"2^53+1 < 2^53+2 as float", mustCompare(t, b, NewFloat(0x1p53+2)) < 0},
		{"MaxInt64 < 2^63 as float", mustCompare(t, NewInt(math.MaxInt64), NewFloat(0x1p63)) < 0},
		{"keys differ", a.SortKey() != b.SortKey()},
		{"2^53 shares the float's key", a.SortKey() == NewFloat(0x1p53).SortKey()},
		{"keys order", a.SortKey() < b.SortKey() && b.SortKey() < NewFloat(0x1p53+2).SortKey()},
	}
	for _, c := range cases {
		if !c.got {
			t.Errorf("%s: false", c.name)
		}
	}

	g := New("big")
	g.AddNode([]string{"T"}, Props{"id": a})
	g.AddNode([]string{"T"}, Props{"id": b})
	if n := len(g.LabelPropNodes("T", "id", b)); n != 1 {
		t.Errorf("index lookup of 2^53+1 found %d nodes, want 1", n)
	}
	if n := len(g.LabelPropRange("T", "id", ValueBound(a, false), Bound{})); n != 1 {
		t.Errorf("range id > 2^53 found %d nodes, want 1", n)
	}
	if d := ExtractSchema(g).NodeLabels["T"].Props["id"].Distinct; d != 2 {
		t.Errorf("schema counts %d distinct ids, want 2", d)
	}
}

func mustCompare(t *testing.T, a, b Value) int {
	t.Helper()
	c, ok := a.Compare(b)
	if !ok {
		t.Fatalf("%v and %v are not comparable", a, b)
	}
	return c
}

// TestAppendSortKeyAllocs: a key appended into a buffer with room costs
// nothing, so probing a map with it is allocation-free.
func TestAppendSortKeyAllocs(t *testing.T) {
	vals := []Value{NewInt(9007199254740993), NewFloat(2.5), NewString("a tweet text"), NewList(NewInt(1), NewString("x"))}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		for _, v := range vals {
			buf = v.AppendSortKey(buf[:0])
		}
	}); n != 0 {
		t.Errorf("AppendSortKey allocates %v per run, want 0", n)
	}
}
