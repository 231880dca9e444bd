// Package digesttest checks a configuration's physics/runtime split by
// reflection, so a field added to either half is covered without editing
// the tests.
package digesttest

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// leaf is one settable value reachable from a configuration.
type leaf struct {
	path string
	v    reflect.Value
}

// leaves returns, in field order, every settable leaf reachable from ptr (a
// pointer to a struct): booleans, numbers, strings, and nil pointers and
// slices. It descends into structs, arrays and non-nil pointers and slices,
// and skips unexported fields, functions, interfaces, maps and channels.
func leaves(ptr any) []leaf {
	var out []leaf
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch k := v.Kind(); {
		case k == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					walk(path+"."+f.Name, v.Field(i))
				}
			}
		case (k == reflect.Pointer || k == reflect.Slice) && v.IsNil():
			out = append(out, leaf{path[1:], v})
		case k == reflect.Pointer:
			walk(path, v.Elem())
		case k == reflect.Array || k == reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case k == reflect.Bool || k == reflect.String || v.CanInt() || v.CanUint() || v.CanFloat():
			out = append(out, leaf{path[1:], v})
		}
	}
	walk("", reflect.ValueOf(ptr).Elem())
	return out
}

// perturb sets leaf v to a different value; nil becomes non-nil.
func perturb(v reflect.Value) {
	switch k := v.Kind(); {
	case k == reflect.Bool:
		v.SetBool(!v.Bool())
	case k == reflect.String:
		v.SetString(v.String() + "x")
	case k == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case k == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case v.CanInt():
		v.SetInt(v.Int() + 1)
	case v.CanUint():
		v.SetUint(v.Uint() + 1)
	default:
		v.SetFloat(v.Float()*2 + 1.5)
	}
}

// CheckSplit changes each leaf of the configuration build returns, one at a
// time on a fresh copy, and reports every leaf for which hash moving
// disagrees with physics(path). build must return a new value on each call
// with every optional part populated, so that all leaves are reached.
func CheckSplit[T any](t testing.TB, build func() *T, hash func(*T) string, physics func(path string) bool) {
	t.Helper()
	base := hash(build())
	for i, l := range leaves(build()) {
		c := build()
		perturb(leaves(c)[i].v)
		if moved, want := hash(c) != base, physics(l.path); moved != want {
			t.Errorf("changing %s (physics: %v) moved Hash: %v", l.path, want, moved)
		}
	}
}

// CheckNonFinite sets every float leaf whose path starts with prefix to NaN,
// +Inf and -Inf in turn, on a fresh copy of a valid configuration, and
// reports each value validate accepts.
func CheckNonFinite[T any](t testing.TB, build func() *T, validate func(*T) error, prefix string) {
	t.Helper()
	if err := validate(build()); err != nil {
		t.Fatalf("base configuration invalid: %v", err)
	}
	for i, l := range leaves(build()) {
		if !l.v.CanFloat() || !strings.HasPrefix(l.path, prefix) {
			continue
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := build()
			leaves(c)[i].v.SetFloat(bad)
			if validate(c) == nil {
				t.Errorf("%s = %v accepted", l.path, bad)
			}
		}
	}
}
