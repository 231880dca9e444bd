// Package digest is the canonical content hash behind every configuration
// Hash: it walks a value by reflection and digests all of it, so a field
// added to a hashed struct joins the digest without anyone listing it.
//
// Every struct field is encoded under its name, unexported ones included;
// numbers (floats by IEEE bit pattern, so ±Inf is a value like any other)
// and lengths as 8 big-endian bytes; nil pointers and slices apart from
// empty ones. encoding/gob is unfit (its type ids depend on what the
// process encoded before), as are encoding/json (rejects ±Inf) and %v
// (prints pointer addresses).
package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
)

// Of returns a 16-hex-digit digest of v's complete contents. It panics on
// a map, channel, function, interface or complex value, which have no
// canonical encoding here; a configuration holding one fails its first
// Hash call.
func Of(v any) string {
	sum := sha256.Sum256(appendValue(nil, reflect.ValueOf(v)))
	return hex.EncodeToString(sum[:8])
}

func appendValue(b []byte, v reflect.Value) []byte {
	u64 := binary.BigEndian.AppendUint64
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return u64(b, 1)
		}
		return u64(b, 0)
	case v.CanInt():
		return u64(b, uint64(v.Int()))
	case v.CanUint():
		return u64(b, v.Uint())
	case v.CanFloat():
		return u64(b, math.Float64bits(v.Float()))
	}
	switch v.Kind() {
	case reflect.String:
		return append(u64(b, uint64(v.Len())), v.String()...)
	case reflect.Pointer:
		if v.IsNil() {
			return u64(b, 0)
		}
		return appendValue(u64(b, 1), v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return u64(b, 0)
		}
		b = u64(b, 1)
		fallthrough
	case reflect.Array:
		b = u64(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			b = appendValue(append(u64(b, uint64(len(name))), name...), v.Field(i))
		}
		return b
	}
	panic(fmt.Sprintf("digest: no canonical encoding for %s", v.Type()))
}
