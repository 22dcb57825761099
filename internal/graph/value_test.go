package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, "null"},
		{NewBool(true), KindBool, "true"},
		{NewBool(false), KindBool, "false"},
		{NewInt(42), KindInt, "42"},
		{NewInt(-7), KindInt, "-7"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewString("hi"), KindString, `"hi"`},
		{NewList(NewInt(1), NewString("a")), KindList, `[1, "a"]`},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

// TestValueLayout pins the compact 24-byte representation and that every
// accessor returns its zero payload when the kind does not match.
func TestValueLayout(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s != 24 {
		t.Fatalf("sizeof(Value) = %d, want 24", s)
	}
	for _, v := range []Value{Null, NewBool(true), NewInt(-7), NewFloat(2.5), NewString("hé"), NewList(NewInt(1)), NewList()} {
		k := v.Kind()
		if (k != KindBool && v.Bool()) || (k != KindInt && v.Int() != 0) || (k != KindFloat && v.Float() != 0) ||
			(k != KindString && v.Str() != "") || (k != KindList && v.List() != nil) {
			t.Errorf("%v: a mismatched accessor returned a payload", v)
		}
	}
	if v := NewString("hé"); v.Str() != "hé" || NewFloat(-0.5).Float() != -0.5 || NewInt(-7).Int() != -7 {
		t.Fatal("payload round trip")
	}
	if l := NewList(NewInt(1), NewString("a")).List(); len(l) != 2 || l[1].Str() != "a" {
		t.Fatalf("list payload %v", l)
	}
}

func TestOfConversions(t *testing.T) {
	if Of(nil).Kind() != KindNull {
		t.Error("Of(nil) should be null")
	}
	if Of(3).Int() != 3 {
		t.Error("Of(int)")
	}
	if Of(int64(9)).Int() != 9 {
		t.Error("Of(int64)")
	}
	if Of(uint32(5)).Int() != 5 {
		t.Error("Of(uint32)")
	}
	if Of(1.5).Float() != 1.5 {
		t.Error("Of(float64)")
	}
	if Of("x").Str() != "x" {
		t.Error("Of(string)")
	}
	if !Of(true).Equal(NewBool(true)) {
		t.Error("Of(bool)")
	}
	l := Of([]string{"a", "b"})
	if l.Kind() != KindList || len(l.List()) != 2 || l.List()[1].Str() != "b" {
		t.Errorf("Of([]string) = %v", l)
	}
	li := Of([]int{1, 2, 3})
	if li.Kind() != KindList || li.List()[2].Int() != 3 {
		t.Errorf("Of([]int) = %v", li)
	}
	la := Of([]any{1, "x", true})
	if la.Kind() != KindList || !la.List()[2].Bool() {
		t.Errorf("Of([]any) = %v", la)
	}
	if Of(struct{}{}).Kind() != KindNull {
		t.Error("Of(unsupported) should be null")
	}
	v := NewInt(1)
	if !Of(v).Equal(v) || Of(v).Kind() != KindInt {
		t.Error("Of(Value) should be identity")
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{NewInt(1), NewInt(1), true},
		{NewInt(1), NewInt(2), false},
		{NewInt(1), NewFloat(1.0), true},
		{NewFloat(2.5), NewFloat(2.5), true},
		{NewString("a"), NewString("a"), true},
		{NewString("a"), NewString("b"), false},
		{NewString("1"), NewInt(1), false},
		{NewBool(true), NewBool(true), true},
		{NewBool(true), NewInt(1), false},
		{Null, Null, false},
		{Null, NewInt(0), false},
		{NewList(NewInt(1)), NewList(NewInt(1)), true},
		{NewList(NewInt(1)), NewList(NewInt(2)), false},
		{NewList(NewInt(1)), NewList(NewInt(1), NewInt(2)), false},
		{NewList(Null), NewList(Null), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		if c, ok := a.Compare(b); !ok || c >= 0 {
			t.Errorf("want %v < %v (got c=%d ok=%v)", a, b, c, ok)
		}
		if c, ok := b.Compare(a); !ok || c <= 0 {
			t.Errorf("want %v > %v", b, a)
		}
	}
	lt(NewInt(1), NewInt(2))
	lt(NewInt(1), NewFloat(1.5))
	lt(NewFloat(-3), NewInt(0))
	lt(NewString("abc"), NewString("abd"))
	lt(NewBool(false), NewBool(true))

	if _, ok := NewInt(1).Compare(NewString("a")); ok {
		t.Error("int vs string must be incomparable")
	}
	if _, ok := Null.Compare(NewInt(1)); ok {
		t.Error("null must be incomparable")
	}
	if c, ok := NewInt(5).Compare(NewFloat(5)); !ok || c != 0 {
		t.Error("5 should equal 5.0 in comparison")
	}
}

func TestValueTruthy(t *testing.T) {
	if !NewBool(true).Truthy() {
		t.Error("true should be truthy")
	}
	for _, v := range []Value{NewBool(false), Null, NewInt(1), NewString("true")} {
		if v.Truthy() {
			t.Errorf("%v should not be truthy", v)
		}
	}
}

func TestSortKeyOrdersNumbersLikeCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := NewFloat(rng.NormFloat64() * 1000)
		b := NewFloat(rng.NormFloat64() * 1000)
		c, _ := a.Compare(b)
		ka, kb := a.SortKey(), b.SortKey()
		switch {
		case c < 0 && !(ka < kb):
			t.Fatalf("SortKey order mismatch: %v < %v but keys %q >= %q", a, b, ka, kb)
		case c > 0 && !(ka > kb):
			t.Fatalf("SortKey order mismatch: %v > %v but keys %q <= %q", a, b, ka, kb)
		case c == 0 && ka != kb:
			t.Fatalf("SortKey mismatch for equal values %v", a)
		}
	}
}

func TestHashableDistinguishesKinds(t *testing.T) {
	vals := []Value{
		Null, NewBool(false), NewBool(true), NewInt(0), NewInt(1),
		NewString(""), NewString("0"), NewString("null"),
		NewList(), NewList(NewInt(1)),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		h := v.SortKey()
		if prev, dup := seen[h]; dup && !(prev.IsNull() && v.IsNull()) {
			// int 0 / float 0.0 intentionally collide (numeric equality);
			// no such pair is in the list above.
			t.Errorf("hash collision between %v and %v", prev, v)
		}
		seen[h] = v
	}
	if NewInt(3).SortKey() != NewFloat(3).SortKey() {
		t.Error("3 and 3.0 must group together")
	}
}

func TestEqualSymmetryProperty(t *testing.T) {
	f := func(ai, bi int64, as, bs string, pick uint8) bool {
		mk := func(sel uint8, i int64, s string) Value {
			switch sel % 5 {
			case 0:
				return Null
			case 1:
				return NewInt(i)
			case 2:
				return NewFloat(float64(i) / 2)
			case 3:
				return NewString(s)
			default:
				return NewBool(i%2 == 0)
			}
		}
		a := mk(pick, ai, as)
		b := mk(pick>>4, bi, bs)
		return a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropsCloneAndKeys(t *testing.T) {
	p := Props{"b": NewInt(1), "a": NewString("x")}
	c := p.Clone()
	if !reflect.DeepEqual(p.Keys(), []string{"a", "b"}) {
		t.Errorf("Keys = %v", p.Keys())
	}
	c["a"] = NewInt(99)
	if p["a"].Kind() != KindString {
		t.Error("Clone must not share storage")
	}
	var nilProps Props
	if nilProps.Clone() != nil {
		t.Error("nil Clone should be nil")
	}
	if len(nilProps.Keys()) != 0 {
		t.Error("nil Keys should be empty")
	}
}

func TestValueDisplay(t *testing.T) {
	if NewString("hi").Display() != "hi" {
		t.Error("string display should be unquoted")
	}
	if NewInt(3).Display() != "3" {
		t.Error("int display")
	}
}
